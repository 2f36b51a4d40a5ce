"""The benchmark's own tests: ``python3 -m pytest perfbench``."""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))


def _inputs(seed, tmp_path):
    paths, expected = gen.write_inputs(gen.generate(seed, 120), tmp_path / str(seed))
    return {role: path.read_bytes() for role, path in paths.items()}, expected


def test_generator_is_deterministic_per_seed(tmp_path):
    first, first_expected = _inputs(7, tmp_path / "a")
    again, again_expected = _inputs(7, tmp_path / "b")
    other, _ = _inputs(8, tmp_path / "c")
    assert first == again and first_expected == again_expected
    assert all(first[role] != other[role] for role in first)


def test_generator_embeds_every_fixture_once():
    corpus = gen.generate(3, 200)
    assert len(corpus.trees) == 200
    assert sorted(corpus.fixture_lines) == sorted(f["id"] for f in gen.SNAPSHOT["fixtures"])
    for tree in corpus.trees:
        gen.validate_tree(tree)


def test_generator_rejects_a_broken_tree():
    tree = gen.Tree("a b", [("a", "NN"), ("b", "NN")], [("root", 0, 1), ("compound", 2, 2)])
    with pytest.raises(ValueError):
        gen.validate_tree(tree)


def test_generator_does_not_import_presup(tmp_path):
    for node in ast.walk(ast.parse((HERE / "gen.py").read_text("utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not any(name.split(".")[0] == "presup" for name in names)
    probe = ("import pathlib, sys; sys.path.insert(0, sys.argv[1]); import gen; "
             "gen.write_inputs(gen.generate(1, 40), pathlib.Path(sys.argv[2])); "
             "print('presup' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe, str(HERE), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


class _Clock:
    """A fake clock that only the traced functions move."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, ns):
        self.now += ns


def test_tracer_self_times_cover_the_wall_and_follow_headlines():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    validate = tracer.wrap(lambda: clock.tick(3), "validate", boundary="end")
    step = tracer.wrap(lambda: clock.tick(4), "step", boundary="start")

    def parse():  # two lines of work, then the sentence's closing call
        for _ in range(3):
            clock.tick(2)
            validate()
        clock.tick(1)

    parse = tracer.wrap(parse, "parse", phase="end")

    def main():
        clock.tick(5)
        parse()
        clock.tick(6)
        for _ in range(2):
            step()
            clock.tick(7)

    tracer.wrap(main, "main", phase="start")()
    assert clock.now == 5 + (3 * 5 + 1) + 6 + 2 * (4 + 7)
    assert sum(tracer.total_ns(name) for name in tracer.self_ns) == clock.now
    assert tracer.per_headline_us("parse", 4) == [0.002, 0.002, 0.002, 0.001]
    assert tracer.per_headline_us("validate", 3) == [0.003, 0.003, 0.003]
    assert tracer.per_headline_us("step", 2) == [0.004, 0.004]
    # Before its first boundary and after the nested phase, main is headline 0.
    assert dict(tracer.self_ns["main"]) == {0: 11, 1: 7, 2: 7}
    headline_of = {(name, start): h for name, start, _, _, h in tracer.spans}
    assert [h for (name, _), h in headline_of.items() if name == "validate"] == [1, 2, 3]
    assert [h for (name, _), h in headline_of.items() if name in ("main", "parse")] == [0, 0]


def _copy_checkout(tmp_path, with_src=True):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    if with_src:
        shutil.copytree(HERE.parent / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return tmp_path


def _run(checkout, workload, trace=0, size=60):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", str(size)],
        capture_output=True, text=True, timeout=170, cwd=checkout,
    )


def test_run_fails_without_the_package(tmp_path):
    proc = _run(_copy_checkout(tmp_path, with_src=False), "infer-news")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_run_fails_when_an_output_is_wrong(tmp_path):
    checkout = _copy_checkout(tmp_path)
    rules = checkout / "src" / "presup" / "rules.py"
    rules.write_text(rules.read_text("utf-8").replace('"both": "can be/can have"',
                                                      '"both": "can be or have"'), "utf-8")
    proc = _run(checkout, "infer-conllu-shallow")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 60
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
