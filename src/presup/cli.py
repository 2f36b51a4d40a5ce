"""Command-line entry point: infer, eval, morph and stats subcommands."""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import re
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .corpus import letters, parse_gold, preprocess, read_dataset
from .errors import FormatError, ParseError, read_text, split_lines
from .evaluation import (
    MatchConfig,
    MatchMode,
    match,
    normalize,
    report_dict,
    score_by_trigger,
    score_headline,
    trigger_table,
)
from .ingest import ParsedHeadline, parse_conllu, parse_stanford_json
from .lexicon import TriggerLexicon, default_lexicon, load_lexicon
from .morphology import VerbForm, conjugate
from .rules import (
    DEFAULT_RULES,
    RULE_IDS,
    EngineConfig,
    Inference,
    InferenceKind,
    check_compound_mode,
    check_rule_ids,
    infer_all,
    quoted_tokens,
)

_FORM_NAMES = {
    "base": VerbForm.BASE,
    "past": VerbForm.PAST,
    "participle": VerbForm.PAST_PARTICIPLE,
    "past-participle": VerbForm.PAST_PARTICIPLE,
    "gerund": VerbForm.GERUND,
    "present3sg": VerbForm.PRESENT_3SG,
    "3sg": VerbForm.PRESENT_3SG,
}


def _read_config_file(path: str) -> dict[str, tuple[str, str]]:
    """key -> (value, 'path:line' of the key) for each 'key = value' line."""
    values = {}
    for lineno, raw in enumerate(split_lines(read_text(path)), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise FormatError(
                f"{path}:{lineno}: unknown key {key!r} (known keys: {', '.join(SETTINGS)})"
            )
        values[key] = (value, f"{path}:{lineno}")
    return values


def _check_rules(spec: str) -> tuple[str, ...]:
    """The ids a comma-separated ``spec`` names, 'all' and 'lexical' expanded;
    an empty spec is the default rule set, one that names no rule (',') an
    error."""
    if not spec:
        return DEFAULT_RULES
    out: list[str] = []
    for item in spec.split(","):
        item = item.strip()
        if item == "lexical":
            out.extend(r for r in RULE_IDS if r.startswith("lexical."))
        elif item == "all":
            out.extend(RULE_IDS)
        elif item:
            out.append(item)
    if not out:
        raise ValueError(f"rules {spec!r} names no rule")
    return check_rule_ids(dict.fromkeys(out))


def _check_verb_pattern(value: str) -> str:
    if value not in ("strict", "relaxed"):
        raise ValueError(f"verb_pattern must be strict or relaxed, got {value!r}")
    return value


def _check_lexicon(path: str) -> TriggerLexicon:
    return load_lexicon(path) if path else default_lexicon()


# The engine settings: key -> (default, check, help).  Each key is one
# --config key and one flag (--key, '_' written '-').  check turns the text
# of the flag, of the file or of the default into the value and raises
# ValueError on a bad one.
SETTINGS = {
    "rules": ("", _check_rules, "comma-separated rule ids; 'all' and 'lexical' name groups"),
    "verb_pattern": ("relaxed", _check_verb_pattern, "'strict' drops the bare VB tag from verbs"),
    "compound_mode": ("both", check_compound_mode, "noun compounds as can_be, can_have or both"),
    "lexicon": ("", _check_lexicon, "trigger lexicon TSV path (default: the bundled one)"),
}


def _build_engine_config(args) -> EngineConfig:
    """Each setting from its flag, else from the --config file, else its
    default; a bad value from the file is an error at its path:line."""
    in_file = _read_config_file(args.config) if args.config else {}
    value = {}
    for key, (default, check, _) in SETTINGS.items():
        flag = getattr(args, key)
        if flag is not None or key not in in_file:
            value[key] = check(default if flag is None else flag)
            continue
        text, where = in_file[key]
        try:
            value[key] = check(text)
        except FormatError:
            raise  # a lexicon file names its own path:line
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    return EngineConfig(
        rules=value["rules"],
        lexicon=value["lexicon"],
        strict_verbs=value["verb_pattern"] == "strict",
        compound_mode=value["compound_mode"],
    )


def _item_line(text: str, k: int) -> int:
    """The 1-based line on which JSON value ``k`` of ``text`` starts: item
    ``k`` of an array, or the one object.  Only an error message needs it."""
    pos = len(text) - len(text.lstrip())
    if text[pos] == "[":
        decoder, skip = json.JSONDecoder(), re.compile(r"[\s,]*")
        pos = skip.match(text, pos + 1).end()
        for _ in range(k):
            pos = skip.match(text, decoder.raw_decode(text, pos)[1]).end()
    return text.count("\n", 0, pos) + 1


def load_parses(path: str) -> list[ParsedHeadline]:
    """Read a sidecar parse file: CoNLL-U by extension, else Stanford JSON
    (single object, array of objects, or JSON Lines).  Errors name
    ``path:line``; in an array, the line its bad object starts on."""
    text = read_text(path)
    if Path(path).suffix in (".conllu", ".conll"):
        return parse_conllu(text, path)
    stripped = text.strip()
    if not stripped:
        return []
    first_line = text[: len(text) - len(text.lstrip())].count("\n") + 1
    try:
        payload = json.loads(stripped)
    except (ValueError, RecursionError) as exc:  # as in parse_stanford_json
        if stripped.startswith("["):
            # Nesting past the recursion limit or a too-long integer has no
            # position: name the "[".
            lineno = first_line + getattr(exc, "lineno", 1) - 1
            raise ParseError(
                f"{path}:{lineno}: invalid JSON: {getattr(exc, 'msg', exc)}"
            ) from None
        payload = None  # JSON Lines
    if isinstance(payload, dict):
        payload = [payload]
    parses = []
    if isinstance(payload, list):
        for k, obj in enumerate(payload):
            try:
                parses.append(parse_stanford_json(obj))
            except ParseError as exc:
                raise type(exc)(f"{path}:{_item_line(text, k)}: {exc}") from None
        return parses
    for lineno, line in enumerate(split_lines(stripped), start=first_line):
        if line.strip():
            try:
                parses.append(parse_stanford_json(line))
            except ParseError as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from None
    return parses


def _spans_for_tokens(h: ParsedHeadline, quotes) -> tuple[tuple[int, int], ...]:
    """The first and last token inside each quote.  No rule reads
    ``ParsedHeadline.quoted_spans`` and ``cmd_infer`` does not set it; the
    benchmark's rule timing still builds its headlines with it."""
    return tuple((span[0], span[-1]) for span in quoted_tokens(h, quotes) if span)


def cmd_infer(args) -> int:
    cfg = _build_engine_config(args)
    records = read_dataset(read_text(args.dataset), args.dataset)
    parses = load_parses(args.parses)
    by_id = {}
    for h in parses:
        by_id.setdefault(h.headline_id, h)
    skipped: list[dict] = []
    lines: list[str] = []
    trigger_counts: Counter = Counter()
    for i, record in enumerate(records, start=1):
        h = by_id.get(str(i))
        if h is None and i - 1 < len(parses):
            h = parses[i - 1]  # by position
        if h is None:
            skipped.append({"line": i, "headline": record.text, "reason": "no parse"})
            continue
        # Paired by id or by position, a parse must be of this line's text.
        if h.raw_text != record.text and letters(h.raw_text) != letters(record.text):
            skipped.append({"line": i, "headline": record.text, "reason": "mismatch",
                            "parse": h.raw_text})
            continue
        p = preprocess(record.text)
        h = ParsedHeadline(str(i), record.text, h.tokens, h.edges)
        inferences = infer_all(h, p, cfg)
        trigger_counts.update(inf.trigger for inf in inferences)
        lines.append(
            json.dumps(
                {
                    "headline": record.text,
                    "inferences": [inf.to_dict() for inf in inferences],
                },
                ensure_ascii=False,
            )
        )
    out_path = Path(args.out)
    out_path.write_text("".join(line + "\n" for line in lines), "utf-8")
    manifest = {
        "tool": "presup",
        "version": __version__,
        "dataset": str(args.dataset),
        "parses": str(args.parses),
        "config_hash": hashlib.sha256(cfg.fingerprint().encode("utf-8")).hexdigest(),
        "rules": list(cfg.rules),
        "headlines": len(records),
        "inferred": len(lines),
        "inference_counts": dict(sorted(trigger_counts.items())),
        "skipped": skipped,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, ensure_ascii=False) + "\n", "utf-8"
    )
    for entry in skipped:
        what = f"parse of {entry['parse']!r} does not match" if "parse" in entry else "no parse for"
        print(f"warning: line {entry['line']}: {what} {entry['headline']!r}", file=sys.stderr)
    if skipped and args.strict:
        print(f"error: {len(skipped)} headline(s) without a matching parse", file=sys.stderr)
        return 1
    return 0


def _read_jsonl(path: str, parse) -> dict:
    """{normalized headline: parse(record)} over a JSON Lines file of objects
    with a ``headline`` string.  ``parse`` raises FormatError without a
    location.  A headline may repeat only with the same parsed content."""
    out: dict = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(split_lines(read_text(path)), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # as in parse_stanford_json
            raise FormatError(f"{where}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise FormatError(f"{where}: expected a JSON object")
        if not isinstance(obj.get("headline"), str):
            raise FormatError(f"{where}: missing or non-string 'headline'")
        try:
            value = parse(obj)
        except FormatError as exc:
            raise FormatError(f"{where}: {exc}") from None
        key = normalize(obj["headline"])
        if key in out:
            if out[key] != value:
                raise FormatError(
                    f"{where}: headline {obj['headline']!r} repeats line "
                    f"{first_line[key]} with different content"
                )
            continue
        out[key], first_line[key] = value, lineno
    return out


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


_KINDS = tuple(k.value for k in InferenceKind)


def _parse_inferences(obj: dict) -> list[Inference]:
    entries = obj.get("inferences", [])
    if not isinstance(entries, list):
        raise FormatError("'inferences' must be a list")
    for d in entries:
        if not isinstance(d, dict):
            raise FormatError("each inference must be a JSON object")
        if d.get("kind") not in _KINDS:
            raise FormatError(f"inference 'kind' must be one of {', '.join(_KINDS)}")
        if not isinstance(d.get("text"), str):
            raise FormatError("inference 'text' must be a string")
        if not isinstance(d.get("trigger", ""), str):
            raise FormatError("inference 'trigger' must be a string")
        span = d.get("span", [])
        if not (isinstance(span, list) and all(isinstance(i, int) for i in span)):
            raise FormatError("inference 'span' must be a list of integers")
    return [Inference.from_dict(d) for d in entries]


def _parse_labels(obj: dict) -> dict:
    incorrect = obj.get("incorrect", [])
    matched = obj.get("matched", [])
    if not _is_str_list(incorrect):
        raise FormatError("'incorrect' must be a list of strings")
    if not (
        isinstance(matched, list)
        and all(_is_str_list(pair) and len(pair) == 2 for pair in matched)
    ):
        raise FormatError("'matched' must be a list of [gold, computed] string pairs")
    return {
        "incorrect": frozenset(incorrect),
        "matched": tuple(tuple(pair) for pair in matched),
    }


def _read_inference_file(path: str) -> dict[str, list[Inference]]:
    return _read_jsonl(path, _parse_inferences)


def _read_labels_file(path: str) -> dict[str, dict]:
    return _read_jsonl(path, _parse_labels)


def cmd_eval(args) -> int:
    gold = parse_gold(read_text(args.gold), args.gold)
    computed_by_headline = _read_inference_file(args.inferences)
    labels = _read_labels_file(args.labels) if args.labels else {}
    # With --labels, a headline the file leaves out has nothing incorrect.
    unlabeled = {"matched": (), "incorrect": frozenset() if args.labels else None}
    cfg = MatchConfig(
        mode=MatchMode(args.match_mode),
        jaccard_threshold=args.jaccard_threshold,
    )
    headline_scores = []
    alignments = []
    for annotation in gold:
        key = normalize(annotation.headline)
        computed = computed_by_headline.get(key)
        if computed is None:
            print(
                f"warning: no computed inferences for {annotation.headline!r}; "
                "counting all gold as missing",
                file=sys.stderr,
            )
            computed = []
        entry = labels.get(key, unlabeled)
        alignment = match(computed, annotation, cfg, entry["matched"], entry["incorrect"])
        headline_scores.append(score_headline(alignment, headline=annotation.headline))
        alignments.append(alignment)
    trigger_scores = score_by_trigger(alignments)
    report = report_dict(headline_scores, trigger_scores)
    if args.out:
        Path(args.out).write_text(
            json.dumps(report, indent=2, ensure_ascii=False) + "\n", "utf-8"
        )
    if args.table:
        Path(args.table).write_text(trigger_table(trigger_scores), "utf-8")
    for s in headline_scores:
        print(
            f"{s.headline}\n  gold={s.gold_count} computed={s.computed_count} "
            f"matched={s.matched_count} correct={s.percent_correct:.1f}% "
            f"incorrect={s.percent_incorrect:.1f}%"
        )
    if trigger_scores:
        print()
        print(trigger_table(trigger_scores), end="")
    return 0


def cmd_morph(args) -> int:
    print(conjugate(args.verb.lower(), _FORM_NAMES[args.form]))
    return 0


def cmd_stats(args) -> int:
    records = read_dataset(read_text(args.dataset), args.dataset)
    print(f"headlines: {len(records)}")
    for source, count in sorted(Counter(r.source for r in records).items()):
        print(f"  {source or '(unknown)'}: {count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="presup",
        description="Compute context-independent inferences from dependency-parsed "
        "news headlines and score them against gold annotations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="run the rules over a dataset")
    p_infer.add_argument("--dataset", required=True, help="headline dataset file")
    p_infer.add_argument("--parses", required=True, help="CoNLL-U or Stanford JSON parses")
    p_infer.add_argument("--config", help="key=value engine config file")
    p_infer.add_argument("--out", required=True, help="output JSONL path")
    p_infer.add_argument("--strict", action="store_true",
                         help="fail if any headline lacks a matching parse")
    for key, (_, _, help_text) in SETTINGS.items():
        p_infer.add_argument("--" + key.replace("_", "-"), help=help_text)
    p_infer.set_defaults(func=cmd_infer)

    p_eval = sub.add_parser("eval", help="score computed inferences against gold")
    p_eval.add_argument("--inferences", required=True, help="JSONL from 'infer'")
    p_eval.add_argument("--gold", required=True, help="gold annotation file")
    p_eval.add_argument("--labels", help="JSONL with human incorrect/matched judgments")
    p_eval.add_argument("--match-mode", choices=[m.value for m in MatchMode],
                        default=MatchMode.EXACT_NORMALIZED.value)
    p_eval.add_argument("--jaccard-threshold", type=float, default=0.6)
    p_eval.add_argument("--out", help="report JSON path")
    p_eval.add_argument("--table", help="per-trigger TSV table path")
    p_eval.set_defaults(func=cmd_eval)

    p_morph = sub.add_parser("morph", help="conjugate a verb")
    p_morph.add_argument("verb")
    p_morph.add_argument("form", choices=sorted(_FORM_NAMES))
    p_morph.set_defaults(func=cmd_morph)

    p_stats = sub.add_parser("stats", help="dataset headline/source counts")
    p_stats.add_argument("--dataset", required=True)
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Everything a command builds lives until it returns, so the cyclic
    # collector would scan it again and again and reclaim nothing.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    # FormatError and ParseError are ValueErrors.
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: file not found", file=sys.stderr)
    except OSError as exc:  # a directory, no permission, ...
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    finally:
        if gc_was_enabled:
            gc.enable()
    return 1


if __name__ == "__main__":
    sys.exit(main())
