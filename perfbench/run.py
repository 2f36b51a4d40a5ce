"""presup benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload infer-news --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run generates its inputs from ``--seed`` (``gen.py``), then

* ``--trace 0``: starts a fresh single-threaded process per ``cli.main`` call
  and repeats until ``--seconds`` have passed, then reports the median
  throughput, peak RSS and set-up time (end-to-end metrics);
* ``--trace 1``: alternates untraced and traced calls of the workload for
  ``--seconds``, traces the other two workloads' calls on the same corpus
  once, and times each rule alone, then reports the per-layer metrics.

Every output is checked (see ``check_infer`` and ``check_eval``); a failed
check prints ``"correct": false`` and exits with status 1.  The last line of
standard output is the result as JSON.  The workloads, metrics and the layer
to end-to-end map are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT = CHECKOUT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

ALL_RULES = "all"
SHALLOW_RULES = "compound,nmod_of,triple"

# Sizes make one call take roughly a second on a 2-core sandbox, so a run
# holds many fresh-process samples while the corpus stays diverse.
WORKLOADS = {
    "infer-news": {"kind": "infer", "parses": "stanford", "rules": ALL_RULES, "size": 2000},
    "infer-conllu-shallow": {"kind": "infer", "parses": "conllu", "rules": SHALLOW_RULES,
                             "size": 5000},
    "eval-jaccard": {"kind": "eval", "size": 1500},
}
SETUP_REPEATS = 9
# The reference host speed is the one at which worker.calibrate() takes this
# long (about its time on an idle 2-core x86-64 sandbox at 2.1 GHz).  Each
# measured time is scaled by REFERENCE_CAL_S / (calibration measured next to
# it), so the metrics read as if the host ran at the reference speed; the raw
# wall-clock medians are printed alongside.
REFERENCE_CAL_S = 0.025
DEADLINE_S = 170
INFERENCE_KINDS = {">>", "~=", "triple"}


class Run:
    """Paths, inputs and expectations of one corpus, and the problems found."""

    def __init__(self, seed: int, size: int, work: Path):
        self.corpus = gen.generate(seed, size)
        self.size = len(self.corpus.trees)
        self.paths, self.eval_expected = gen.write_inputs(self.corpus, work / "in")
        one = gen.Corpus(seed=seed, trees=self.corpus.trees[:1])
        self.one_paths, _ = gen.write_inputs(one, work / "one")
        self.work = work
        self.problems: list[str] = []
        self.started = time.monotonic()

    def argv(self, workload: str, one: bool = False, tag: str = "out") -> tuple[list, Path]:
        spec = WORKLOADS[workload]
        paths = self.one_paths if one else self.paths
        out = self.work / f"{workload}.{tag}.{'jsonl' if spec['kind'] == 'infer' else 'json'}"
        if spec["kind"] == "infer":
            argv = ["infer", "--dataset", str(paths["dataset"]),
                    "--parses", str(paths[spec["parses"]]), "--out", str(out),
                    "--rules", spec["rules"]]
        else:
            argv = ["eval", "--inferences", str(paths["inferences"]), "--gold",
                    str(paths["gold"]), "--labels", str(paths["labels"]),
                    "--match-mode", "jaccard", "--out", str(out)]
        return argv, out

    def worker(self, mode: str, request: dict) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise TimeoutError("run exceeded its deadline")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, json.dumps(request)],
            capture_output=True, text=True, timeout=remaining, cwd=CHECKOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} failed:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- checks


def check_infer(run: Run, workload: str, out: Path, result: dict) -> int:
    """Number of failed headlines of one infer output."""
    n = run.size
    if result["rc"] != 0:
        run.problems.append(f"{workload}: rc {result['rc']}: {result['stderr'][-3:]}")
        return n
    rules = set(WORKLOADS[workload]["rules"].split(","))
    shallow = rules != {ALL_RULES}
    failed = set()
    lines = out.read_text("utf-8").splitlines()
    if len(lines) != n:
        run.problems.append(f"{workload}: {len(lines)} output lines for {n} headlines")
        failed.update(range(len(lines) + 1, n + 1))
    records = []
    for i, (line, tree) in enumerate(zip(lines, run.corpus.trees), start=1):
        try:
            record = json.loads(line)
            ok = record["headline"] == tree.text and all(
                inf["kind"] in INFERENCE_KINDS and inf["text"].strip()
                and (ALL_RULES in rules or inf["trigger"] in rules)
                and inf["span"] and all(1 <= k <= len(tree.tokens) for k in inf["span"])
                for inf in record["inferences"]
            )
        except (ValueError, KeyError, TypeError):
            record, ok = None, False
        records.append(record)
        if not ok:
            failed.add(i)
            continue
        oracle = gen.oracle_compound_nmod_of(tree)
        if shallow:
            expected, seen = [], set()
            for trigger, text, span in oracle:
                if text.lower() not in seen:
                    seen.add(text.lower())
                    expected.append([trigger, text, span])
            got = [[inf["trigger"], inf["text"], inf["span"]] for inf in record["inferences"]
                   if inf["trigger"] in ("compound", "nmod_of")]
        else:
            expected = {text.lower() for trigger, text, _ in oracle if trigger == "compound"}
            got = {inf["text"].lower() for inf in record["inferences"]
                   if inf["trigger"] == "compound"}
        if got != expected:
            failed.add(i)
    if failed:
        run.problems.append(f"{workload}: {len(failed)} malformed or wrong records, "
                            f"first at line {min(failed)}")
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text("utf-8"))
    for entry in manifest["skipped"]:
        failed.add(entry["line"])
    if manifest["skipped"] or result["stderr"]:
        run.problems.append(f"{workload}: skipped {len(manifest['skipped'])}, "
                            f"stderr {result['stderr'][:3]}")
    found = 0
    expectations = gen.documented_expectations(run.corpus, rules if shallow else None)
    for line, trigger, text in expectations:
        record = records[line - 1] if line <= len(records) else None
        if record and any(inf["trigger"] == trigger and gen.norm_key(inf["text"]) == gen.norm_key(text)
                          for inf in record["inferences"]):
            found += 1
        else:
            failed.add(line)
            run.problems.append(f"{workload}: fixture line {line} lacks {trigger}: {text!r}")
    print(f"# {workload}: fixture recall {100.0 * found / len(expectations):.1f} % "
          f"({found}/{len(expectations)} documented fixture inferences)")
    return len(failed)


def check_eval(run: Run, workload: str, out: Path, result: dict) -> int:
    """Number of failed gold blocks of one eval report."""
    n = run.size
    if result["rc"] != 0:
        run.problems.append(f"{workload}: rc {result['rc']}: {result['stderr'][-3:]}")
        return n
    report = json.loads(out.read_text("utf-8"))
    rows = report.get("headlines", [])
    failed = {i for i, (row, want) in enumerate(zip(rows, run.eval_expected), 1) if row != want}
    failed.update(range(len(rows) + 1, n + 1))
    if failed:
        run.problems.append(f"{workload}: {len(failed)} report rows differ from the "
                            f"expected scores, first at gold block {min(failed)}")
    # A gold block without a computed record is warned about by headline.
    lines_of = {}
    for i, tree in enumerate(run.corpus.trees, 1):
        lines_of.setdefault(repr(tree.text), []).append(i)
    for warning in result["stderr"]:
        failed.update(next((v for k, v in lines_of.items() if k in warning), [0]))
    if result["stderr"]:
        run.problems.append(f"{workload}: {len(result['stderr'])} warnings, "
                            f"first {result['stderr'][0]!r}")
    if not report.get("triggers"):
        run.problems.append(f"{workload}: report has no per-trigger rows")
    return len(failed)


def check(run: Run, workload: str, out: Path, result: dict) -> int:
    kind = WORKLOADS[workload]["kind"]
    try:
        return (check_infer if kind == "infer" else check_eval)(run, workload, out, result)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        run.problems.append(f"{workload}: unreadable output: {exc!r}")
        return run.size


# ---------------------------------------------------------------- modes


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def timed_calls(run: Run, workload: str, seconds: float, traced: bool):
    """Fresh-process calls until ``seconds`` pass: (untraced, traced) results.

    The first output is checked in full; every later output, traced or not,
    must be byte-identical to it."""
    argv, out = run.argv(workload)
    untraced, traced_results, failed, digest = [], [], 0, None
    started = time.monotonic()
    while len(untraced) < 2 or time.monotonic() - started < seconds:
        for mode in (("run", "trace") if traced else ("run",)):
            request = {"argv": argv, "headlines": run.size,
                       "spans": str(OUT / "spans" / f"{workload}.jsonl")}
            result = run.worker(mode, request)
            (traced_results if mode == "trace" else untraced).append(result)
            if digest is None:
                failed += check(run, workload, out, result)
                digest = sha256(out) if result["rc"] == 0 else ""
            elif result["rc"] != 0:
                failed += run.size
                run.problems.append(f"{workload}: {mode} call failed: {result['stderr'][-3:]}")
            elif sha256(out) != digest:
                failed += run.size
                run.problems.append(f"{workload}: {mode} output differs from the first run")
    return untraced, traced_results, failed, digest


def end_to_end(run: Run, workload: str, seconds: float):
    # One unmeasured process first, so byte-compiling the package is not set-up time.
    argv, _ = run.argv(workload, one=True)
    setups = [run.worker("setup", {"argv": argv}) for _ in range(SETUP_REPEATS + 1)][1:]
    for s in setups:
        if s["rc"] != 0 or s["stderr"]:
            run.problems.append(f"{workload}: one-headline set-up call failed: {s['stderr'][:3]}")
    runs, _, failed, digest = timed_calls(run, workload, seconds, traced=False)
    rate = [run.size * r["calibration_s"] / (r["wall_s"] * REFERENCE_CAL_S) for r in runs]
    rss = [r["peak_rss_mb"] for r in runs]
    setup = [s["setup_s"] * REFERENCE_CAL_S / s["calibration_s"] for s in setups]
    print(f"# raw wall clock: {statistics.median(run.size / r['wall_s'] for r in runs):.1f} "
          f"headlines/s, set-up {statistics.median(s['setup_s'] for s in setups):.4f} s")
    metrics = {
        "headlines_per_s": (statistics.median(rate), "headlines/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    for name, values in (("headlines_per_s", rate), ("peak_rss_mb", rss), ("setup_s", setup)):
        q1, med, q3 = quartiles(values)
        print(f"# {name}: n={len(values)} q1={q1:.4f} median={med:.4f} q3={q3:.4f}")
    return metrics, len(runs) * run.size, failed, digest


def _layer(results, layer, stat):
    values = [r["layers"][layer][stat] for r in results if layer in r["layers"]]
    return statistics.median(values) if values else 0.0


def per_layer(run: Run, workload: str, seconds: float):
    untraced, traced, failed, digest = timed_calls(run, workload, seconds, traced=True)
    attempted = (len(untraced) + len(traced)) * run.size
    # Layers the workload's own call never reaches are measured by tracing
    # the other workloads' calls on the same corpus.
    sources = [traced]
    for other in WORKLOADS:
        if other != workload:
            argv, out = run.argv(other, tag="secondary")
            result = run.worker("trace", {"argv": argv, "headlines": run.size,
                                          "spans": str(OUT / "spans" / f"{workload}.{other}.jsonl")})
            failed += check(run, other, out, result)
            attempted += run.size
            sources.append([result])
    news_argv, _ = run.argv("infer-news", tag="rules")
    rules = run.worker("rules", {"dataset": str(run.paths["dataset"]),
                                 "parses": str(run.paths["stanford"]), "argv": news_argv})

    def source(layer, stat="calls"):
        """The first traced calls that reach ``layer``; for per-headline
        figures, the first whose headlines spend time in it."""
        for results in sources:
            if any(r["layers"].get(layer, {}).get(stat) for r in results):
                return results
        return source(layer) if stat != "calls" else []

    n = run.size
    metrics = {}

    def per_headline(metric, layer=None, stats_of=None):
        layer = layer or metric
        results = source(layer, "median_us")
        for suffix, stat in (("_us", "median_us"), ("_us.p99", "p99_us")):
            metrics[metric + suffix] = (_layer(results, stats_of or layer, stat), "us")

    def total(metric, layer=None):
        layer = layer or metric
        metrics[metric + "_s"] = (_layer(source(layer), layer, "self_s"), "s")

    for layer in ("ingest.parse_stanford_json", "ingest.parse_conllu", "ingest.normalize_labels",
                  "ingest.validate", "corpus.preprocess", "rules.generate_all",
                  "morphology.lemma", "evaluation.normalize", "evaluation.match",
                  "evaluation.score_headline", "cli.serialize"):
        per_headline(layer)
    per_headline("rules.infer_all", stats_of="rules.infer_all.inclusive")
    per_headline("rules.dedup", "rules.infer_all")
    for layer in ("cli.load_parses", "corpus.read_dataset", "lexicon.default_lexicon",
                  "evaluation.score_by_trigger", "corpus.parse_gold", "cli.read_inferences",
                  "cli.read_labels", "cli.write"):
        total(layer)
    total("cli.other", "cli.main")
    for rule_id, r in rules["rules"].items():
        metrics[f"rules.{rule_id}_us"] = (r["median_us"], "us")
        metrics[f"rules.{rule_id}_us.p99"] = (r["p99_us"], "us")
        metrics[f"rules.{rule_id}.fired"] = (r["fired"], "count")
    metrics["rules.dedup_dropped"] = (rules["dedup_dropped"], "count")
    metrics["rules.lexical.hit_ratio"] = (
        rules["lexical_fired"] / rules["lexical_attempts"] if rules["lexical_attempts"] else 0.0,
        "ratio")
    for layer in ("morphology.lemma", "morphology.conjugate", "evaluation.normalize"):
        metrics[f"{layer}.calls"] = (_layer(source(layer), layer, "calls") / n, "calls/headline")
    norm = source("evaluation.normalize")
    calls = _layer(norm, "evaluation.normalize", "calls")
    distinct = statistics.median(r["normalize_distinct"] for r in norm) if norm else 0
    metrics["evaluation.normalize.distinct_ratio"] = (distinct / calls if calls else 0.0, "ratio")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")

    for target in sorted({t for r in traced for t in r["missing"]}):
        print(f"# warning: trace target {target} not found; its layer reads 0")
    first = traced[0]
    print(f"# self times of one traced {workload} call (wall {first['wall_s']:.4f} s, "
          f"{first['spans']} spans kept), share of the traced wall:")
    for layer, stats in sorted(first["layers"].items(), key=lambda kv: -kv[1].get("self_s", 0)):
        if "self_s" in stats:
            print(f"#   {layer:32s} {stats['self_s']:9.4f} s {100 * stats['self_s'] / first['wall_s']:6.1f} %"
                  f"  {stats['calls']:8d} calls")
    if workload == "infer-news":
        share = rules["infer_all_s"] / rules["cli_main_s"]
        print(f"# untraced, in one process: rules.infer_all over the corpus {rules['infer_all_s']:.4f} s, "
              f"cli.main {rules['cli_main_s']:.4f} s, share {100 * share:.1f} % (medians of 3)")
    return metrics, attempted, failed, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, help="headlines in the corpus (default per workload)")
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "presup" / "__init__.py").is_file():
        print(f"error: no presup source under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    work = OUT / f"run-{os.getpid()}"
    try:
        run = Run(args.seed, args.size or WORKLOADS[args.workload]["size"], work)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, digest = measure(run, args.workload, args.seconds)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "inference_jsonl" if WORKLOADS[args.workload]["kind"] == "infer" else "eval_report"
    print(f"sha256 {kind} {args.workload} seed={args.seed} size={run.size} {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for problem in run.problems:
        print(f"# FAILED CHECK: {problem}")
    correct = not run.problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
