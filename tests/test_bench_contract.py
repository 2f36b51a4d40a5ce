"""The benchmark's hold on the package, checked without running it.

``perfbench/`` drives the package from outside: ``worker.py`` wraps names in
the package's modules to trace a run, and ``results.json`` records the
sha256 of each workload's output at the commit that added the benchmark.
These tests load ``worker.py`` and ``run.py`` as they load themselves, with
``perfbench`` on ``sys.path``, and change nothing there: a refactor that
breaks a name the benchmark reaches for, or changes a workload's output,
fails here."""

import ast
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest

import presup.rules
from conftest import FIXTURES
from presup.cli import main
from presup.ingest import ParsedHeadline
from presup.rules import Inference

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# The one target that is already missing: evaluation calls no preprocess.
MISSING = ["presup.evaluation.preprocess"]


def _load(name):
    """``perfbench/<name>.py`` as a module; ``sys.path`` is left as it was."""
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path[:] = saved


@pytest.fixture(scope="module")
def worker():
    return _load("worker")


def test_every_trace_target_resolves(worker):
    missing = [f"{module}.{attr}" for module, attr, _, _ in worker.TARGETS
               if getattr(importlib.import_module(module), attr, None) is None]
    assert missing == MISSING
    # install() also reaches these, outside TARGETS.
    assert callable(Inference.to_dict)
    cli = importlib.import_module("presup.cli")
    assert callable(cli.json.dumps) and callable(cli.Path.write_text)


def test_every_name_the_worker_imports_from_the_package_exists(worker):
    tree = ast.parse((PERFBENCH / "worker.py").read_text("utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("presup")]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_the_rule_entry_points_keep_their_signatures():
    for fn in (presup.rules.generate_all, presup.rules.infer_all):
        inspect.signature(fn).bind("h", "p", "cfg")
    assert "quoted_spans" in {f.name for f in fields(ParsedHeadline)}


def test_the_rules_call_lemma_and_conjugate_through_their_module_globals(
    tmp_path, monkeypatch
):
    """The trace counts morphology calls by wrapping ``presup.rules.lemma``
    and ``presup.rules.conjugate``; a rule that bound them elsewhere would
    read zero calls."""
    calls = {"lemma": 0, "conjugate": 0}
    for name in calls:
        def counted(*args, _fn=getattr(presup.rules, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(presup.rules, name, counted)
    code = main(["infer", "--rules", "all",
                 "--dataset", str(FIXTURES / "basic_triggers_dataset.txt"),
                 "--parses", str(FIXTURES / "basic_triggers.json"),
                 "--out", str(tmp_path / "out.jsonl")])
    assert code == 0
    assert calls["lemma"] > 0 and calls["conjugate"] > 0


@pytest.mark.parametrize("workload", ["infer-news", "infer-conllu-shallow", "eval-jaccard"])
def test_seed_1_output_matches_the_recorded_baseline(tmp_path, workload):
    """The workload's output on the seed-1 corpus, built and run as
    ``run.py`` builds and runs it, has the sha256 that ``results.json``
    recorded for it."""
    run = _load("run")
    recorded = json.loads((PERFBENCH / "results.json").read_text("utf-8"))["sets"][0]["workloads"]
    corpus = run.Run(1, run.WORKLOADS[workload]["size"], tmp_path)
    argv, out = corpus.argv(workload)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == recorded[workload]["output_sha256_by_seed"]["1"]
