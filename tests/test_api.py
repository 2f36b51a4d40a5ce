"""The package's surface: ``presup.__all__`` is the README's list, the
README's library example runs as written, every function, class,
method and module-level name of the package is used somewhere outside its
own definition, and only ``cli._report`` writes to stderr."""

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
    """(name, statement) for each module-level function and class, each
    method of such a class, and each name that a module-level assignment
    binds, but the dunder methods and names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from (
                    (sub.name, sub) for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (
                (name.id, node) for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                and not name.id.startswith("__")
            )


def _walk(tree: ast.AST, skip: ast.AST):
    """The nodes of ``tree``, leaving out ``skip``'s subtree."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _references(tree: ast.AST, skip: ast.AST) -> set[str]:
    """The names, attributes and string constants (a getattr or trace
    target) in ``tree``, leaving out ``skip``'s subtree."""
    found: set[str] = set()
    for node in _walk(tree, skip):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _reads(tree: ast.AST, skip: ast.AST) -> set[str]:
    """The attributes ``tree`` loads and its string constants (a getattr,
    attrgetter or trace target), leaving out ``skip``'s subtree.  A keyword
    argument or an attribute assigned is a write, not a read."""
    found: set[str] = set()
    for node in _walk(tree, skip):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _trees() -> dict[Path, ast.Module]:
    """The code that may use the package's source: src/ and perfbench/.  A
    frozen reference copy in tests/ keeps its own copy of what it needs, so
    its use keeps nothing of the package alive."""
    sources = [
        *sorted((ROOT / "src").rglob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
    ]
    return {path: ast.parse(path.read_text("utf-8")) for path in sources}


README_WORDS = set(re.findall(r"\w+", README))


def test_no_dead_source():
    """A definition, or a name bound by a module-level assignment, counts as
    used when the README names it, or when code in src/ or perfbench/
    refers to it outside its own body or statement.  Imports do not count,
    so neither does a re-export."""
    trees = _trees()
    dead = []
    for path in sorted((ROOT / "src" / "presup").glob("*.py")):
        for name, definition in _definitions(trees[path]):
            if name in README_WORDS:
                continue
            if not any(name in _references(tree, definition) for tree in trees.values()):
                dead.append(f"{path.name}: {name}")
    assert dead == []


def _record_fields(tree: ast.Module):
    """(class, field) for each annotated field of each dataclass or
    NamedTuple class of ``tree``."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
            isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases
        ):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield node, sub


def test_no_unread_record_field():
    """A field of a record is read when the README names it, or when code in
    src/ or perfbench/ loads it as an attribute or names it in a string,
    outside its own annotation line.
    Building a record writes its fields, by keyword or by position."""
    trees = _trees()
    unread = []
    for path in sorted((ROOT / "src" / "presup").glob("*.py")):
        for cls, annotation in _record_fields(trees[path]):
            name = annotation.target.id
            if name in README_WORDS:
                continue
            if not any(name in _reads(tree, annotation) for tree in trees.values()):
                unread.append(f"{path.name}: {cls.name}.{name}")
    assert unread == []


def test_only_report_writes_to_stderr():
    """Every ``warning:`` and ``error:`` line goes through ``cli._report``:
    no other code in src/presup names ``stderr`` or ``__stderr__``, as an
    attribute, a name, an import or a string."""
    trees = _trees()
    cli = trees[ROOT / "src" / "presup" / "cli.py"]
    (report,) = [node for node in cli.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_report"]
    stderr = {"stderr", "__stderr__"}
    assert stderr & _references(report, None)
    writers = []
    for path in sorted((ROOT / "src" / "presup").glob("*.py")):
        tree = trees[path]
        imported = {alias.name for alias in _walk(tree, report) if isinstance(alias, ast.alias)}
        if stderr & (_references(tree, report) | imported):
            writers.append(path.name)
    assert writers == []
