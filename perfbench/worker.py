"""One measured process of the benchmark; ``run.py`` starts it fresh each time.

    python3 perfbench/worker.py <mode> '<json request>'

Modes:

* ``run``: one untraced ``presup.cli.main`` call; reports its wall time and
  the process's peak RSS.
* ``setup``: ``import presup`` plus one ``cli.main`` call on a one-headline
  input, timed from before the import.
* ``trace``: one ``cli.main`` call with spans around the package's public
  calls; reports per-layer self times and counts and writes the spans.
* ``rules``: ``generate_all`` with one rule at a time over every headline.

The result is the last line of standard output, as JSON.
"""

from __future__ import annotations

import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))

from tracer import ROOT, Tracer  # noqa: E402


def _call_main(argv, main=None):
    """``cli.main`` with its console output captured: (rc, stderr lines).

    An exception out of the CLI is a failed call (rc 1, traceback as its
    stderr), so the benchmark can report it as failed headlines."""
    if main is None:
        from presup.cli import main
    err = io.StringIO()
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull), redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception:  # noqa: BLE001  (reported as the call's failure)
            traceback.print_exc()
            rc = 1
    return rc, [line for line in err.getvalue().splitlines() if line.strip()]


def calibrate() -> float:
    """Seconds taken by a fixed piece of interpreter work (dicts, strings,
    sorting, JSON) like the package's own.

    The sandbox's speed swings by a third within seconds as other tenants
    load the host; timing this next to each measured call lets ``run.py``
    scale the call to a reference speed."""
    started = time.perf_counter()
    words = [f"w{i % 97}x{i % 13}" for i in range(3000)]
    for _ in range(6):
        index = {}
        for k, w in enumerate(words):
            index.setdefault(w[:3], []).append((k, w.upper()))
        json.loads(json.dumps([{"a": w, "b": k} for k, w in enumerate(words)]))
        seen = set()
        unique = [w.lower() for w in words if not (w in seen or seen.add(w))]
        " ".join(sorted(unique, key=str.lower)).split()
    return time.perf_counter() - started


def mode_run(req):
    import presup.cli  # noqa: F401  (import cost is setup, not throughput)

    before = calibrate()
    started = time.perf_counter()
    rc, stderr = _call_main(req["argv"])
    wall = time.perf_counter() - started
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration = (before + calibrate()) / 2
    return {"rc": rc, "wall_s": wall, "calibration_s": calibration,
            "peak_rss_mb": rss_kb / 1024.0, "stderr": stderr}


def mode_setup(req):
    """The stdlib modules this file imports (json, io, pathlib, ...) are
    loaded before the clock starts; everything the package adds is timed."""
    started = time.perf_counter()
    import presup  # noqa: F401

    rc, stderr = _call_main(req["argv"])
    setup = time.perf_counter() - started
    # Calibrated only afterwards, so nothing but this file's imports runs
    # before the measured import.
    return {"rc": rc, "setup_s": setup, "calibration_s": calibrate(), "stderr": stderr}


def _quantiles(values):
    if not values:
        return 0.0, 0.0
    if len(values) < 2:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=100)[98]


class _JsonProxy:
    """``json`` with a traced ``dumps``."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


# (module, attribute, layer, options).  Wrapping the name a module looks up
# leaves the package untouched.  Phases and boundaries attribute time to
# headlines (see ``tracer.py``).  In the read_* helpers the JSON of line k is
# decoded before its ``normalize`` call, so that decoding counts for headline
# k - 1; those layers are reported as totals only.
TARGETS = [
    ("presup.cli", "default_lexicon", "lexicon.default_lexicon", {}),
    ("presup.cli", "read_dataset", "corpus.read_dataset", {}),
    ("presup.cli", "load_parses", "cli.load_parses", {"phase": "start"}),
    ("presup.cli", "parse_stanford_json", "ingest.parse_stanford_json", {"boundary": "start"}),
    ("presup.cli", "parse_conllu", "ingest.parse_conllu", {"phase": "end"}),
    ("presup.ingest", "normalize_labels", "ingest.normalize_labels", {}),
    ("presup.ingest", "_validate", "ingest.validate", {"boundary": "end"}),
    ("presup.cli", "preprocess", "corpus.preprocess", {"boundary": "start"}),
    ("presup.evaluation", "preprocess", "corpus.preprocess", {}),
    ("presup.cli", "infer_all", "rules.infer_all", {}),
    ("presup.rules", "generate_all", "rules.generate_all", {}),
    ("presup.rules", "lemma", "morphology.lemma", {"record": False}),
    ("presup.rules", "conjugate", "morphology.conjugate", {"record": False}),
    ("presup.cli", "parse_gold", "corpus.parse_gold", {}),
    ("presup.cli", "_read_inference_file", "cli.read_inferences", {"phase": "start"}),
    ("presup.cli", "_read_labels_file", "cli.read_labels", {"phase": "start"}),
    ("presup.cli", "normalize", "evaluation.normalize", {"boundary": "start", "keep_text": True}),
    ("presup.evaluation", "normalize", "evaluation.normalize", {"keep_text": True}),
    ("presup.cli", "match", "evaluation.match", {}),
    ("presup.cli", "score_headline", "evaluation.score_headline", {}),
    ("presup.cli", "score_by_trigger", "evaluation.score_by_trigger", {}),
]


def install(tracer: Tracer):
    """Wrap every target; returns the targets that were missing."""
    import importlib
    import pathlib

    import presup.cli as cli
    import presup.rules as rules

    missing = []
    for module_name, attr, layer, opts in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(fn, layer, **opts))

    # Serialization: Inference.to_dict plus json.dumps as the CLI calls them.
    if hasattr(rules, "Inference") and hasattr(rules.Inference, "to_dict"):
        rules.Inference.to_dict = tracer.wrap(rules.Inference.to_dict, "cli.serialize")
    else:
        missing.append("presup.rules.Inference.to_dict")
    cli.json = _JsonProxy(cli.json, tracer.wrap(cli.json.dumps, "cli.serialize"))

    class TracedPath(type(pathlib.Path())):
        def write_text(self, *args, **kwargs):
            tracer.enter("cli.write")
            try:
                return super().write_text(*args, **kwargs)
            finally:
                tracer.exit()

    cli.Path = TracedPath
    return missing


def mode_trace(req):
    tracer = Tracer()
    missing = install(tracer)
    from presup.cli import main as cli_main

    rc, stderr = _call_main(req["argv"], tracer.wrap(cli_main, ROOT, phase="start"))
    n = req["headlines"]
    root = tracer.spans[0]
    wall_ns = root[2] - root[1]

    layers = {}
    for name in sorted(tracer.self_ns):
        med, p99 = _quantiles(tracer.per_headline_us(name, n))
        layers[name] = {"calls": tracer.calls[name], "self_s": tracer.total_ns(name) / 1e9,
                        "median_us": med, "p99_us": p99}

    # rules.infer_all is reported inclusive: its span durations per headline.
    inclusive = [0.0] * n
    for name, start, end, _, headline in tracer.spans:
        if name == "rules.infer_all" and 1 <= headline <= n:
            inclusive[headline - 1] += (end - start) / 1000.0
    if tracer.calls["rules.infer_all"]:
        med, p99 = _quantiles(inclusive)
        layers["rules.infer_all.inclusive"] = {"calls": tracer.calls["rules.infer_all"],
                                               "median_us": med, "p99_us": p99}

    os.makedirs(os.path.dirname(req["spans"]), exist_ok=True)
    tracer.write_spans(req["spans"])
    return {
        "rc": rc,
        "stderr": stderr,
        "wall_s": wall_ns / 1e9,
        "layers": layers,
        "normalize_distinct": len(tracer.texts["evaluation.normalize"]),
        "missing": missing,
        "spans": len(tracer.spans),
    }


def mode_rules(req):
    """Each rule alone through generate_all over the infer loop's inputs, and
    every rule through infer_all next to untraced ``cli.main`` calls."""
    from dataclasses import replace

    from presup.cli import _spans_for_tokens, load_parses
    from presup.corpus import preprocess, read_dataset
    from presup.lexicon import default_lexicon
    from presup.rules import RULE_IDS, EngineConfig, generate_all, infer_all

    # Each headline is built as cli.cmd_infer builds it.
    records = read_dataset(Path(req["dataset"]).read_text("utf-8"))
    parses = {h.headline_id: h for h in load_parses(req["parses"])}
    pairs = []
    for i, record in enumerate(records, start=1):
        p = preprocess(record.text)
        h = parses[str(i)]
        h = replace(h, headline_id=str(i), raw_text=record.text,
                    quoted_spans=_spans_for_tokens(h, p))
        pairs.append((h, p))
    lexicon = default_lexicon()
    clock = time.perf_counter_ns
    # The infer_all loop's share of an untraced cli.main call, both timed in
    # this process, alternating, so a change of host speed hits both alike.
    cfg = EngineConfig(rules=tuple(RULE_IDS), lexicon=lexicon)
    loops, mains = [], []
    for _ in range(3):
        started = clock()
        rc, stderr = _call_main(req["argv"])
        if rc != 0:
            raise RuntimeError(f"cli.main failed: {stderr[-3:]}")
        mains.append((clock() - started) / 1e9)
        kept, started = 0, clock()
        for h, p in pairs:
            kept += len(infer_all(h, p, cfg))
        loops.append((clock() - started) / 1e9)
    generated = sum(len(generate_all(h, p, cfg)) for h, p in pairs)
    rules_out = {}
    for rule_id in RULE_IDS:
        cfg = EngineConfig(rules=(rule_id,), lexicon=lexicon)
        times, fired = [], 0
        for h, p in pairs:
            started = clock()
            fired += len(generate_all(h, p, cfg))
            times.append((clock() - started) / 1000.0)
        med, p99 = _quantiles(times)
        rules_out[rule_id] = {"median_us": med, "p99_us": p99, "fired": fired}
    lexical = [r for r in RULE_IDS if r.startswith("lexical.")]
    verbs = sum(1 for h, _ in pairs for t in h.tokens if t.pos.startswith("V"))
    return {
        "rules": rules_out,
        "infer_all_s": statistics.median(loops),
        "cli_main_s": statistics.median(mains),
        "dedup_dropped": generated - kept,
        "lexical_fired": sum(rules_out[r]["fired"] for r in lexical),
        "lexical_attempts": verbs * len(lexical),
    }


MODES = {"run": mode_run, "setup": mode_setup, "trace": mode_trace, "rules": mode_rules}

if __name__ == "__main__":
    result = MODES[sys.argv[1]](json.loads(sys.argv[2]))
    sys.stdout.write(json.dumps(result) + "\n")
