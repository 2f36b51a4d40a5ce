"""Dataset records, headline preprocessing and gold-annotation parsing.

The dataset format is one record per line, ``<headline> [source: <source>
<timestamp>]``.  Preprocessing strips punctuation for the parse layer while
remembering double-quoted spans, which the quotation trigger needs later.
Gold files are blocks of a headline, ``>>`` inference lines and a closing
``||`` line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormatError

_HYPHENS = "-–—"  # -, en dash, em dash: replaced by a space
_APOSTROPHES = "'’"  # kept only between word characters
_DOUBLE_QUOTES = '"“”'
_OTHER_PUNCT = ".,!?;:()‘" + _DOUBLE_QUOTES
_PUNCT = set(_HYPHENS + _APOSTROPHES + _OTHER_PUNCT)

_MONTHS = {
    m
    for name in (
        "january february march april may june july august september october "
        "november december"
    ).split()
    for m in (name, name[:3])
}
_MONTHS.add("sept")


@dataclass(frozen=True)
class HeadlineRecord:
    text: str
    source: str
    timestamp_raw: str


@dataclass(frozen=True)
class QuotedSpan:
    start_word: int  # 0-based word offsets into the cleaned text
    end_word: int
    text: str  # verbatim substring between the quote characters

    @property
    def word_count(self) -> int:
        return self.end_word - self.start_word + 1


@dataclass(frozen=True)
class PreprocessedHeadline:
    cleaned: str
    quoted_spans: tuple[QuotedSpan, ...]


@dataclass(frozen=True)
class GoldInference:
    text: str
    trigger: str | None = None


@dataclass(frozen=True)
class GoldAnnotation:
    headline: str
    inferences: tuple[GoldInference, ...]


def parse_dataset_line(line: str) -> HeadlineRecord:
    """Split one dataset line into headline, source and raw timestamp.

    The source/timestamp boundary is the first token of the bracketed rest
    that looks like the start of a date (month name or digit-initial token);
    without one the whole rest is the source.
    """
    marker = line.rfind("[source:")
    if marker < 0:
        raise FormatError(f"no '[source:' bracket in line: {line!r}")
    text = line[:marker].strip()
    if not text:
        raise FormatError(f"empty headline in line: {line!r}")
    rest = line[marker + len("[source:"):]
    close = rest.rfind("]")
    if close >= 0:
        rest = rest[:close]
    source, timestamp = rest.strip(), ""
    for m in re.finditer(r"\S+", rest):
        token = m.group(0)
        if token.lower().rstrip(".,") in _MONTHS or token[0].isdigit():
            source = rest[: m.start()].strip()
            timestamp = rest[m.start():].strip()
            break
    return HeadlineRecord(text=text, source=source, timestamp_raw=timestamp)


def read_dataset(document: str) -> list[HeadlineRecord]:
    """All records of a dataset document; '#' comment and blank lines skipped."""
    records = []
    for line in document.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        records.append(parse_dataset_line(line))
    return records


def _double_quote_pairs(text: str) -> list[tuple[int, int]]:
    """Pair quote characters left to right; unmatched openers yield no span."""
    pairs = []
    straight = [i for i, c in enumerate(text) if c == '"']
    for k in range(0, len(straight) - 1, 2):
        pairs.append((straight[k], straight[k + 1]))
    open_curly = None
    for i, c in enumerate(text):
        if c == "“":
            open_curly = i
        elif c == "”" and open_curly is not None:
            pairs.append((open_curly, i))
            open_curly = None
    return sorted(pairs)


def preprocess(text: str) -> PreprocessedHeadline:
    """Strip punctuation (hyphens become spaces, in-word apostrophes survive)
    and record which cleaned words fall inside double-quoted spans."""
    pairs = _double_quote_pairs(text)
    span_of_char = {}
    for sid, (start, end) in enumerate(pairs):
        for i in range(start + 1, end):
            span_of_char[i] = sid
    out: list[tuple[str, int | None]] = []
    for i, c in enumerate(text):
        sid = span_of_char.get(i)
        if c in _HYPHENS:
            out.append((" ", sid))
        elif c in _APOSTROPHES:
            prev_ok = i > 0 and text[i - 1].isalnum()
            next_ok = i + 1 < len(text) and text[i + 1].isalnum()
            if prev_ok and next_ok:
                out.append((c, sid))
        elif c not in _PUNCT:
            out.append((c, sid))
    words: list[tuple[str, set[int]]] = []
    current, sids = [], set()
    for c, sid in out:
        if c.isspace():
            if current:
                words.append(("".join(current), sids))
                current, sids = [], set()
        else:
            current.append(c)
            if sid is not None:
                sids.add(sid)
    if current:
        words.append(("".join(current), sids))
    spans = []
    for sid, (start, end) in enumerate(pairs):
        covered = [w for w, (_, s) in enumerate(words) if sid in s]
        if covered:
            spans.append(
                QuotedSpan(
                    start_word=min(covered),
                    end_word=max(covered),
                    text=text[start + 1 : end],
                )
            )
    return PreprocessedHeadline(
        cleaned=" ".join(w for w, _ in words),
        quoted_spans=tuple(spans),
    )


_TRIGGER_TAG = re.compile(r"^(.*?)\s*@([\w.:-]+)\s*$")


def parse_gold(document: str) -> list[GoldAnnotation]:
    """Parse gold blocks: headline line, '>>' inference lines, '||' terminator.

    An '@trigger' suffix on an inference line fills the trigger field and is
    stripped from the text.  '#' comment lines between blocks are ignored.
    """
    annotations = []
    headline: str | None = None
    inferences: list[GoldInference] = []
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.strip()
        if headline is None:
            if not line or line.startswith("#"):
                continue
            if line.startswith(">>"):
                raise FormatError(f"line {lineno}: inference before any headline")
            if line == "||":
                raise FormatError(f"line {lineno}: '||' before any headline")
            headline = line
            inferences = []
        elif line.startswith(">>"):
            body = line[2:].strip()
            trigger = None
            m = _TRIGGER_TAG.match(body)
            if m:
                body, trigger = m.group(1).strip(), m.group(2)
            if not body:
                raise FormatError(f"line {lineno}: empty inference under {headline!r}")
            inferences.append(GoldInference(text=body, trigger=trigger))
        elif line == "||":
            annotations.append(GoldAnnotation(headline=headline, inferences=tuple(inferences)))
            headline = None
        elif not line:
            continue
        else:
            raise FormatError(
                f"line {lineno}: expected '>>' or '||' inside block for {headline!r}"
            )
    if headline is not None:
        raise FormatError(f"missing '||' terminator for headline {headline!r}")
    return annotations


def render_gold(annotations: list[GoldAnnotation]) -> str:
    """Inverse of parse_gold for annotations without '@' in inference texts."""
    lines = []
    for a in annotations:
        lines.append(a.headline)
        for inf in a.inferences:
            lines.append(f">> {inf.text}" + (f" @{inf.trigger}" if inf.trigger else ""))
        lines.append("||")
    return "\n".join(lines) + ("\n" if lines else "")
