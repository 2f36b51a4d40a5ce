"""The package's surface: ``presup.__all__`` is the README's list, the
README's library example runs as written, and every function, class and
method of the package is used somewhere outside its own definition."""

import ast
import json
import re
from pathlib import Path

import presup
from conftest import FIXTURES

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text("utf-8")
LIBRARY = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_all_is_the_readme_list():
    # The list: from its first "- " line to the blank line after it.
    listing = LIBRARY[LIBRARY.index("\n- "):].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", listing)
    assert presup.__all__ == names
    assert [name for name in names if not hasattr(presup, name)] == []


def test_readme_library_example_runs(tmp_path, capsys, monkeypatch):
    block = README.split("```python\n", 1)[1].split("```", 1)[0]
    parse = json.loads((FIXTURES / "basic_triggers.json").read_text("utf-8"))[0]
    (tmp_path / "parse.json").write_text(json.dumps(parse), "utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.splitlines() == [
        ">> Olympics is not yet broadcast",
        ">> state can be/can have television",
        "triple Russian state television will not broadcast Olympics",
        "triple Russian state television will not broadcast Olympics without national team",
    ]


def _definitions(tree: ast.Module):
    """Each module-level function and class, and each method of such a
    class but the dunder ones."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (
                    sub for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")
                )


def _references(tree: ast.AST, skip: ast.AST) -> set[str]:
    """The names, attributes and string constants (a getattr or trace
    target) in ``tree``, leaving out ``skip``'s subtree."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_no_dead_source():
    """A definition counts as used when the README names it, or when code
    in src/, perfbench/ or a frozen reference copy in tests/ refers to it
    outside its own body.  Imports do not count, so neither does a
    re-export."""
    sources = [
        *sorted((ROOT / "src").rglob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
        *sorted((ROOT / "tests").glob("*_reference.py")),
    ]
    trees = {path: ast.parse(path.read_text("utf-8")) for path in sources}
    readme_words = set(re.findall(r"\w+", README))
    dead = []
    for path in sorted((ROOT / "src" / "presup").glob("*.py")):
        for definition in _definitions(trees[path]):
            name = definition.name
            if name in readme_words:
                continue
            if not any(name in _references(tree, definition) for tree in trees.values()):
                dead.append(f"{path.name}: {name}")
    assert dead == []
