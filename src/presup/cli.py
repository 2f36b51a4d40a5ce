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
from itertools import chain
from operator import attrgetter
from pathlib import Path

from . import __version__
from .corpus import HeadlineRecord, letters, parse_gold, preprocess, read_dataset, source_of
from .errors import FormatError, ParseError, content_lines, read_text
from .evaluation import (
    MatchConfig,
    MatchMode,
    match,
    normalize,
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
    # Not called here: the benchmark traces presup.cli.infer_all, and
    # tests/test_bench_contract.py checks that the name resolves.
    infer_all,  # noqa: F401
    infer_many,
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


def _read_config_file(path: str) -> dict[str, tuple[str, int]]:
    """key -> (value, line of the key) for each 'key = value' line.  A key
    may be given once."""
    values: dict[str, tuple[str, int]] = {}
    for lineno, line in content_lines(read_text(path)):
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise FormatError(
                f"{path}:{lineno}: unknown key {key!r} (known keys: {', '.join(SETTINGS)})"
            )
        if key in values:
            raise FormatError(f"{path}:{lineno}: key {key!r} repeats line {values[key][1]}")
        values[key] = value, lineno
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
        text, line = in_file[key]
        try:
            value[key] = check(text)
        except FormatError:
            raise  # a lexicon file names its own path:line
        except ValueError as exc:
            raise FormatError(f"{args.config}:{line}: {exc}") from exc
        except OSError as exc:  # a lexicon path of no readable file
            raise FormatError(f"{args.config}:{line}: {exc.filename}: {exc.strerror}") from exc
    return EngineConfig(
        rules=value["rules"],
        lexicon=value["lexicon"],
        strict_verbs=value["verb_pattern"] == "strict",
        compound_mode=value["compound_mode"],
    )


_DECODER = json.JSONDecoder()
# The whitespace str.strip removes, as a pattern: re's \s is str.isspace.
_SPACE = re.compile(r"\s*")
_JSON_SPACE = re.compile(r"[ \t\n\r]*")  # what json.loads skips around a value


def _item_line(text: str, k: int) -> int:
    """The 1-based line on which JSON value ``k`` of ``text`` starts: item
    ``k`` of an array, or the one object.  Only an error message needs it."""
    pos = _SPACE.match(text).end()
    if text[pos] == "[":
        skip = re.compile(r"[\s,]*")
        pos = skip.match(text, pos + 1).end()
        for _ in range(k):
            pos = skip.match(text, _DECODER.raw_decode(text, pos)[1]).end()
    return text.count("\n", 0, pos) + 1


_LONE_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _check_encodable(texts, error: type[ValueError] = ParseError) -> None:
    """``error`` for the first lone surrogate in ``texts``, (where, text)
    pairs: only a JSON escape such as ``\\ud800`` can give one, and no UTF-8
    output can hold it."""
    for where, text in texts:
        m = _LONE_SURROGATE.search(text)
        if m:
            raise error(f"{where}: lone surrogate {m.group()!r} is not valid UTF-8")


def _parse_texts(h: ParsedHeadline):
    """The texts of ``h`` that its inferences and the manifest may write."""
    yield "headline", h.raw_text
    yield "id", h.headline_id
    for t in h.tokens:
        yield f"token {t.index}", t.surface


def _json_lines(text: str, start: int, end: int, lineno: int, path: str,
                error: type[ValueError] = FormatError):
    """Yield (line number, ``json.loads(line)``) for each line of
    ``text[start:end]`` but the blank ones (all ``str.isspace``), the first
    numbered ``lineno``, decoded in place; invalid JSON is an ``error`` at
    ``path:line``.  As in split_lines, only "\\n" or "\\r\\n" ends a line."""
    while start < end:
        newline = text.find("\n", start, end)
        if newline < 0:
            stop = newline = end
        else:
            stop = newline - 1 if text.endswith("\r", start, newline) else newline
        # Most lines show at their first character that they are not blank.
        if not text[start].isspace() or _SPACE.match(text, start, stop).end() < stop:
            try:  # as json.loads: only JSON whitespace may follow on the line
                value, after = _DECODER.raw_decode(text, start)
                if after != stop and not _JSON_SPACE.fullmatch(text, after, stop):
                    raise ValueError
            except (ValueError, RecursionError):
                try:  # the value or the error of json.loads
                    value = json.loads(text[start:stop])
                except (ValueError, RecursionError) as exc:  # as in parse_stanford_json
                    raise error(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            yield lineno, value
        start, lineno = newline + 1, lineno + 1


def load_parses(path: str) -> list[ParsedHeadline]:
    """Read a sidecar parse file: CoNLL-U by extension, in any case, else
    Stanford JSON (single object, array of objects, or JSON Lines).  The
    document is the file's text stripped of whitespace at both ends.  Errors
    name ``path:line``; in an array, the line its bad object starts on.  Only
    a file that holds a ``\\u`` escape has its parses checked for lone
    surrogates.  JSON Lines are decoded one at a time in the one text."""
    text = read_text(path)
    if Path(path).suffix.lower() in (".conllu", ".conll"):
        return parse_conllu(text, path)
    # text[start:end] is text.strip(), found without copying the text.
    start = _SPACE.match(text).end()
    if start == len(text):
        return []
    end = len(text)
    while text[end - 1].isspace():
        end -= 1
    lineno = text.count("\n", 0, start) + 1
    try:
        payload, stop = _DECODER.raw_decode(text, start)
        # As json.loads(text[start:end]): only JSON whitespace may follow.
        if _JSON_SPACE.match(text, stop).end() < end:
            payload = None
    except (ValueError, RecursionError):
        payload = None
    if payload is None and text[start] == "[":
        try:
            json.loads(text[start:end])  # for the error that json.loads gives
        except (ValueError, RecursionError) as exc:  # as in parse_stanford_json
            # Nesting past the recursion limit or a too-long integer has no
            # position: name the "[".
            lineno += getattr(exc, "lineno", 1) - 1
            raise ParseError(
                f"{path}:{lineno}: invalid JSON: {getattr(exc, 'msg', exc)}"
            ) from None
    if isinstance(payload, dict):
        payload = [payload]
    escaped = "\\u" in text  # only a \u escape can give a lone surrogate
    array = isinstance(payload, list)
    if array:  # keyed by position: only an error looks up the item's line
        items = enumerate(payload)
    else:  # JSON Lines, keyed by line number
        items = _json_lines(text, start, end, lineno, path, ParseError)
    parses = []
    for key, item in items:
        try:
            # An item or line that is a JSON string holds no object, not a
            # document to decode again.
            if type(item) is str:
                raise ParseError("expected a JSON object per headline")
            h = parse_stanford_json(item)
            if escaped:
                _check_encodable(_parse_texts(h))
        except ParseError as exc:
            line = _item_line(text, key) if array else key
            raise type(exc)(f"{path}:{line}: {exc}") from None
        parses.append(h)
    return parses


def _spans_for_tokens(h: ParsedHeadline, quotes) -> tuple[tuple[int, int], ...]:
    """The first and last token inside each quote.  No rule reads
    ``ParsedHeadline.quoted_spans`` and ``cmd_infer`` does not set it; the
    benchmark's rule timing still builds its headlines with it."""
    return tuple((span[0], span[-1]) for span in quoted_tokens(h, quotes) if span)


# A string as json.dumps(..., ensure_ascii=False) writes it: the C function
# that json.JSONEncoder(ensure_ascii=False).encode calls for a str.
_json_string = json.encoder.encode_basestring
# An inference's JSON up to its text, for each kind: the values need no escaping.
_RECORD_START = {kind: f'{{"kind": "{kind.value}", "text": ' for kind in InferenceKind}
_TRIGGER = attrgetter("trigger")


def _jsonl_record(headline: str, inferences: list[Inference]) -> str:
    """``json.dumps({"headline": headline, "inferences": [inf.to_dict() for
    inf in inferences]}, ensure_ascii=False)``, assembled from escaped
    strings: the kind and the span's integers need no escaping."""
    return "".join([
        '{"headline": ', _json_string(headline), ', "inferences": [',
        ", ".join([
            f'{_RECORD_START[kind]}{_json_string(text)}, "trigger": {_json_string(trigger)}, '
            f'"span": [{", ".join(map(str, span))}]}}'
            for kind, text, trigger, span in inferences
        ]),
        "]}",
    ])


def pair(records: list[HeadlineRecord], parses: list[ParsedHeadline]):
    """Yield (i, record, parse, reason) for each record i, from 1.  Record i is
    paired with the first parse whose id is str(i), else with parse i.  The
    reason is "" to infer that parse, under the record's id and text;
    "mismatch" if the parse lacks the record's ``letters``; "no parse" (parse
    None).  Then yield (k, None, parse k, "unused") for each unpaired parse."""
    by_id = {}  # each id to the position of its first parse
    for k, h in enumerate(parses):
        by_id.setdefault(h.headline_id, k)
    paired = bytearray(len(parses))  # 1 for each parse a record was paired with
    for i, record in enumerate(records, start=1):
        hid, text = str(i), record.text
        k = by_id.get(hid, i - 1)
        if k >= len(parses):
            yield i, record, None, "no parse"
            continue
        paired[k] = 1
        h = parses[k]
        if h.raw_text != text and letters(h.raw_text) != letters(text):
            yield i, record, h, "mismatch"
            continue
        if h.headline_id != hid or h.raw_text != text:
            h = ParsedHeadline(hid, text, h.tokens, h.edges)
        yield i, record, h, ""
    for k, h in enumerate(parses):
        if not paired[k]:
            yield k + 1, None, h, "unused"


def _path_text(text: str) -> str:
    """``text``, a path or a message naming one, as UTF-8 can hold it: a
    byte of a path that is not UTF-8 (U+DC80-U+DCFF, as surrogateescape
    decodes it) as ``\\xNN``, any other lone surrogate as ``\\uNNNN``."""
    return _LONE_SURROGATE.sub(lambda m: (
        f"\\x{c - 0xDC00:02x}" if 0xDC80 <= (c := ord(m[0])) <= 0xDCFF else f"\\u{c:04x}"
    ), text)


def _report(level: str, message: str) -> None:
    """Write ``level: message`` to stderr, the one writer of a ``warning:``
    or ``error:`` line, every lone surrogate escaped (``_path_text``)."""
    print(f"{level}: {_path_text(message)}", file=sys.stderr)


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8.  An error names ``path``, also
    one that only closing the file meets (a full disk), which has no name."""
    try:
        Path(path).write_text(text, "utf-8")
    except OSError as exc:
        exc.filename = exc.filename or path
        raise


def _read_records(path: str) -> list[HeadlineRecord]:
    """The records of the dataset file at ``path``.  A '#' line that holds a
    '[source:' bracket, a headline that starts with a hashtag perhaps, is
    skipped as a comment with a warning at ``path:line``."""
    commented: list[int] = []
    records = read_dataset(read_text(path), path, commented=commented)
    for lineno in commented:
        _report("warning", f"{path}:{lineno}: line starts with '#' but holds a "
                "'[source:' bracket; skipped as a comment")
    return records


def cmd_infer(args) -> int:
    cfg = _build_engine_config(args)
    records = _read_records(args.dataset)
    parses = load_parses(args.parses)
    paired, skipped, unused = [], [], []  # pair's verdicts, by reason
    for verdict in pair(records, parses):
        reason = verdict[3]
        (unused if reason == "unused" else skipped if reason else paired).append(verdict)
    # A generator, not a list: each preprocess runs as the engine takes its
    # chunk, where a trace of the run marks the start of that headline.
    items = ((h, preprocess(h.raw_text)) for _, _, h, _ in paired)
    lines = []
    triggers: list[str] = []  # of every inference written, counted once at the end
    for (_, _, h, _), inferences in zip(paired, infer_many(items, cfg)):
        triggers.extend(map(_TRIGGER, inferences))
        lines.append(_jsonl_record(h.raw_text, inferences))
    _write(args.out, "\n".join([*lines, ""]))  # each line ends in a newline
    manifest = {
        "tool": "presup",
        "version": __version__,
        "dataset": _path_text(args.dataset),
        "parses": _path_text(args.parses),
        "config_hash": hashlib.sha256(cfg.fingerprint().encode("utf-8")).hexdigest(),
        "rules": list(cfg.rules),
        "headlines": len(records),
        "inferred": len(lines),
        "inference_counts": dict(sorted(Counter(triggers).items())),
        "skipped": [{"line": i, "headline": record.text, "reason": reason}
                    | ({"parse": h.raw_text} if h else {}) for i, record, h, reason in skipped],
        "unused_parses": [{"position": k, "id": h.headline_id} for k, _, h, _ in unused],
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    _write(args.out + ".manifest.json", json.dumps(manifest, indent=2, ensure_ascii=False) + "\n")
    for _, record, h, _ in skipped:
        what = "no parse for" if h is None else f"parse of {h.raw_text!r} does not match"
        _report("warning", f"{args.dataset}:{record.line}: {what} {record.text!r}")
    if unused:
        _report("warning", f"{args.parses}: {len(unused)} parse(s) paired with "
                "no dataset line; see 'unused_parses' in the manifest")
    if skipped and args.strict:
        raise ValueError(f"{len(skipped)} headline(s) without a matching parse")
    return 0


def _normalized(keys: dict[str, str], text: str) -> str:
    """``normalize(text)``, computed once per distinct text: ``keys`` maps
    each text met so far to its normalized form."""
    key = keys.get(text)
    if key is None:
        key = keys[text] = normalize(text)
    return key


def _read_jsonl(path: str, parse, keys: dict[str, str], gold: set[str]) -> dict:
    """{normalized headline: (parse(record), line)} over a JSON Lines file of
    objects with a ``headline`` string; each key keeps the line of its first
    record.  ``parse`` raises FormatError without a location.  A headline may
    repeat only with the same parsed content.  ``keys`` is ``_normalized``'s
    map, shared by the readers of one eval call; a record whose key is not in
    ``gold`` is warned about."""
    out: dict = {}
    text = read_text(path)
    for lineno, obj in _json_lines(text, 0, len(text), 1, path):
        if not isinstance(obj, dict):
            raise FormatError(f"{path}:{lineno}: expected a JSON object")
        if not isinstance(obj.get("headline"), str):
            raise FormatError(f"{path}:{lineno}: missing or non-string 'headline'")
        try:
            value = parse(obj)
        except FormatError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        key = _normalized(keys, obj["headline"])
        if key in out:
            if out[key][0] != value:
                raise FormatError(
                    f"{path}:{lineno}: headline {obj['headline']!r} repeats line "
                    f"{out[key][1]} with different content"
                )
        else:
            out[key] = value, lineno
        if key not in gold:
            _report("warning", f"{path}:{lineno}: no gold block for "
                    f"{obj['headline']!r}; record ignored")
    return out


_KIND_OF_VALUE = {kind.value: kind for kind in InferenceKind}  # cheaper than InferenceKind(value)


def _parse_inferences(obj: dict) -> list[Inference]:
    entries = obj.get("inferences", [])
    if not isinstance(entries, list):
        raise FormatError("'inferences' must be a list")
    out = []
    for d in entries:
        if not isinstance(d, dict):
            raise FormatError("each inference must be a JSON object")
        kind = d.get("kind")
        if not (isinstance(kind, str) and kind in _KIND_OF_VALUE):
            raise FormatError(f"inference 'kind' must be one of {', '.join(_KIND_OF_VALUE)}")
        text = d.get("text")
        if not isinstance(text, str):
            raise FormatError("inference 'text' must be a string")
        trigger = d.get("trigger", "")
        if not isinstance(trigger, str):
            raise FormatError("inference 'trigger' must be a string")
        # The report, the table and stdout write it; a tab or line break
        # would split a table row.
        if not trigger.isprintable():
            _check_encodable([("inference 'trigger'", trigger)], FormatError)
            raise FormatError(f"inference 'trigger' must be printable, got {trigger!r}")
        span = d.get("span", [])
        # type() rather than isinstance: JSON true is a bool, and bool is an int.
        if not (isinstance(span, list) and {int}.issuperset(map(type, span))):
            raise FormatError("inference 'span' must be a list of integers")
        # tuple.__new__ skips the Python-level __new__ of a NamedTuple.
        out.append(tuple.__new__(Inference, (_KIND_OF_VALUE[kind], text, trigger, tuple(span))))
    return out


def _parse_labels(obj: dict) -> tuple[tuple[tuple[str, str], ...], frozenset[str]]:
    incorrect = obj.get("incorrect", [])
    matched = obj.get("matched", [])
    if not (isinstance(incorrect, list) and {str}.issuperset(map(type, incorrect))):
        raise FormatError("'incorrect' must be a list of strings")
    if not (
        isinstance(matched, list)
        and {list}.issuperset(map(type, matched))
        and {2}.issuperset(map(len, matched))
        and {str}.issuperset(map(type, chain.from_iterable(matched)))
    ):
        raise FormatError("'matched' must be a list of [gold, computed] string pairs")
    return tuple(map(tuple, matched)), frozenset(incorrect)


def _read_inference_file(path: str, keys: dict[str, str], gold: set[str]) -> dict[str, tuple]:
    return _read_jsonl(path, _parse_inferences, keys, gold)


def _read_labels_file(path: str, keys: dict[str, str], gold: set[str]) -> dict[str, tuple]:
    return _read_jsonl(path, _parse_labels, keys, gold)


# One flat report row as json.dumps(..., indent=2) writes it inside a list,
# but for its braces and the indent of its first key.
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",\n      ", ": "))


def _report_json(report: dict[str, list[dict]]) -> str:
    """``json.dumps(report, indent=2, ensure_ascii=False) + "\\n"`` for a
    report of lists of flat, non-empty rows.  With ``indent`` json.dumps runs
    its pure-Python encoder; each row here goes through the C one."""
    parts = []
    for name, rows in report.items():
        items = ",\n".join(
            ["    {\n      " + _ROW_ENCODER.encode(row)[1:-1] + "\n    }" for row in rows]
        )
        parts.append(f"  {_json_string(name)}: " + (f"[\n{items}\n  ]" if rows else "[]"))
    return "{\n" + ",\n".join(parts) + "\n}\n"


def cmd_eval(args) -> int:
    cfg = MatchConfig(mode=MatchMode(args.match_mode), jaccard_threshold=args.jaccard_threshold)
    gold = parse_gold(read_text(args.gold), args.gold)
    keys: dict[str, str] = {}  # each headline text of this call, normalized once
    gold_keys = {_normalized(keys, annotation.headline) for annotation in gold}
    # Each record keeps the line of its headline's first record in its file.
    computed_by_headline = _read_inference_file(args.inferences, keys, gold_keys)
    labels = _read_labels_file(args.labels, keys, gold_keys) if args.labels else {}
    # With --labels, a headline the file leaves out has nothing incorrect.
    unlabeled = (((), frozenset() if args.labels else None), 0)
    rows = []
    alignments = []
    unnamed: dict[str, tuple[str, int, set]] = {}  # key -> (headline, labels line, texts)
    for annotation in gold:
        key = keys[annotation.headline]
        computed, computed_line = computed_by_headline.get(key, ([], 0))
        if not computed_line:
            _report("warning", f"{args.gold}:{annotation.line}: no computed inferences for "
                    f"{annotation.headline!r}; counting all gold as missing")
        (judged, incorrect), line = labels.get(key, unlabeled)
        # The labels' texts naming nothing, unchecked for a headline warned about above.
        texts = set() if line and computed_line else None
        alignment = match(computed, annotation, cfg, judged, incorrect, unnamed=texts)
        if texts is not None:  # a text names nothing if it does in no gold block of its key
            entry = unnamed.setdefault(key, (annotation.headline, line, texts))
            entry[2].intersection_update(texts)
        rows.append(score_headline(alignment, headline=annotation.headline))
        alignments.append(alignment)
    for headline, line, texts in unnamed.values():
        for what, text, side in sorted(texts):  # sorted: a set's order changes from run to run
            _report("warning", f"{args.labels}:{line}: {what} {text!r} "
                    f"names no {side} inference of {headline!r}; ignored")
    report = {"headlines": rows, "triggers": score_by_trigger(alignments)}
    table = trigger_table(report["triggers"])
    if args.out:
        _write(args.out, _report_json(report))
    if args.table:
        _write(args.table, table)
    sys.stdout.write("".join([
        f"{row['headline']}\n  gold={row['gold']} computed={row['computed']} "
        f"matched={row['matched']} correct={row['percent_correct']:.1f}% "
        f"incorrect={row['percent_incorrect']:.1f}%\n"
        for row in rows
    ]) + ("\n" + table if report["triggers"] else ""))
    return 0


def cmd_morph(args) -> int:
    print(conjugate(args.verb.lower(), _FORM_NAMES[args.form]))
    return 0


def cmd_stats(args) -> int:
    records = _read_records(args.dataset)
    print(f"headlines: {len(records)}")
    for source, count in sorted(Counter(source_of(r.bracket) for r in records).items()):
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
    except OSError as exc:  # no such file, a directory, no permission, ...
        reason = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        where = "" if exc.filename is None else f"{exc.filename}: "
        _report("error", f"{where}{reason}")
    except ValueError as exc:
        _report("error", str(exc))
    finally:
        if gc_was_enabled:
            gc.enable()
    return 1


if __name__ == "__main__":
    sys.exit(main())
