"""Dataset records, headline preprocessing and gold-annotation parsing.

The dataset format is one record per line, ``<headline> [source: <source>
<timestamp>]``.  A record keeps the bracket as written; only ``source_of``,
for ``presup stats``, splits out the source.  Preprocessing finds the
double-quoted spans of a headline, as character offsets, which the quotation
trigger needs later; it leaves the text as it is.  ``clean`` strips
punctuation for evaluation, and ``letters`` is what a headline shares with
any tokenization of it.  Gold files are blocks of a headline, ``>>``
inference lines and a closing ``||`` line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import FormatError, located, split_lines

_HYPHENS = "-–—"  # -, en dash, em dash: replaced by a space
_APOSTROPHES = "'’"  # kept only between letters or digits
_DOUBLE_QUOTES = '"“”'
_OTHER_PUNCT = ".,!?;:()‘" + _DOUBLE_QUOTES
# What survives cleaning is defined here once: the table maps each hyphen to
# a space and deletes the other punctuation; the pattern matches every
# apostrophe not preceded or not followed by a ``str.isalnum`` character,
# which is what ``[^\W_]`` matches.  It starts at the apostrophe, so the
# search skips ahead to one instead of trying a lookbehind at each position.
_CLEAN_TABLE = str.maketrans(dict.fromkeys(_HYPHENS, " ") | dict.fromkeys(_OTHER_PUNCT))
_STRAY_APOSTROPHE = re.compile(
    rf"[{_APOSTROPHES}](?:(?<![^\W_][{_APOSTROPHES}])|(?![^\W_]))"
)
# The table's ASCII part for ``bytes.translate``.  ``str.translate`` raises
# and clears a LookupError for every character the table does not map, so
# ASCII text, which is nearly all of it, is cleaned as bytes.
_ASCII_HYPHENS = bytes(ord(c) for c in _HYPHENS if c.isascii())
_ASCII_TABLE = bytes.maketrans(_ASCII_HYPHENS, b" " * len(_ASCII_HYPHENS))
_ASCII_DELETE = bytes(ord(c) for c in _OTHER_PUNCT if c.isascii())

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
    bracket: str  # what follows '[source:', up to the last ']', stripped
    line: int = field(default=0, compare=False)  # the record's line in its file


@dataclass(frozen=True)
class QuotedSpan:
    start: int  # character offsets of the opening and closing quote
    end: int
    text: str  # verbatim substring between the quote characters


class GoldInference(NamedTuple):
    text: str
    trigger: str | None = None


@dataclass(frozen=True)
class GoldAnnotation:
    headline: str
    inferences: tuple[GoldInference, ...]
    line: int = field(default=0, compare=False)  # the headline's line in its file


def parse_dataset_line(line: str, lineno: int = 0) -> HeadlineRecord:
    """The headline and the bracket of one dataset line, line ``lineno`` of
    its file; the bracket is kept as written."""
    marker = line.rfind("[source:")
    if marker < 0:
        raise FormatError(f"no '[source:' bracket in line: {line!r}")
    text = line[:marker].strip()
    if not text:
        raise FormatError(f"empty headline in line: {line!r}")
    bracket = line[marker + len("[source:"):]
    close = bracket.rfind("]")
    if close >= 0:
        bracket = bracket[:close]
    return HeadlineRecord(text, bracket.strip(), lineno)


_WORD = re.compile(r"\S+")


def source_of(bracket: str) -> str:
    """The source a record's bracket names: its words before the first that
    looks like the start of a date (a month name or abbreviation, or a word
    that starts with a digit); without one, the whole bracket."""
    for m in _WORD.finditer(bracket):
        token = m.group(0)
        if token.lower().rstrip(".,") in _MONTHS or token[0].isdigit():
            return bracket[: m.start()].strip()
    return bracket


def read_dataset(document: str, source: str | None = None, *,
                 commented: list[int] | None = None) -> list[HeadlineRecord]:
    """All records of a dataset document; '#' comment and blank lines skipped.
    The number of each comment line that holds a '[source:' bracket, a
    headline that starts with a hashtag perhaps, is appended to ``commented``
    if given.  Errors name ``source:line``."""
    records = []
    for lineno, line in enumerate(split_lines(document), start=1):
        if not line.strip():
            continue
        if line.lstrip().startswith("#"):
            if commented is not None and "[source:" in line:
                commented.append(lineno)
            continue
        try:
            records.append(parse_dataset_line(line, lineno))
        except FormatError as exc:
            raise FormatError(f"{located(source, lineno)}: {exc}") from None
    return records


def _double_quote_pairs(text: str) -> list[tuple[int, int]]:
    """Pair quote characters left to right; unmatched openers yield no span."""
    if '"' not in text and "“" not in text and "”" not in text:
        return []  # most headlines; skips both scans
    straight = [m.start() for m in re.finditer('"', text)]
    pairs = list(zip(straight[::2], straight[1::2]))
    open_curly = None
    for m in re.finditer("[“”]", text):
        if m.group() == "“":
            open_curly = m.start()
        elif open_curly is not None:
            pairs.append((open_curly, m.start()))
            open_curly = None
    return sorted(pairs)


def _clean_words(text: str) -> list[str]:
    """The words of ``text`` with its punctuation stripped: hyphens become
    spaces, an apostrophe survives only between letters or digits, the rest
    of the punctuation is deleted, and whitespace separates words."""
    # Whether _STRAY_APOSTROPHE can match: cheaper than a search.
    if "'" in text or "’" in text:
        text = _STRAY_APOSTROPHE.sub("", text)
    if text.isascii():
        # Decoded before splitting: str.split also breaks on \x1c-\x1f.
        text = text.encode("ascii").translate(_ASCII_TABLE, _ASCII_DELETE).decode("ascii")
    else:
        text = text.translate(_CLEAN_TABLE)
    return text.split()


def clean(text: str) -> str:
    """``text`` with its punctuation stripped and its whitespace collapsed."""
    return " ".join(_clean_words(text))


def letters(text: str) -> str:
    """What a headline shares with its parse whatever the tokenization: its
    letters and digits, casefolded."""
    return "".join(filter(str.isalnum, text.casefold()))


def word_count(text: str) -> int:
    """The number of words ``clean`` leaves of ``text``."""
    return len(_clean_words(text))


def preprocess(text: str) -> tuple[QuotedSpan, ...]:
    """The double-quoted spans of ``text``, left to right."""
    return tuple(
        QuotedSpan(start, end, text[start + 1 : end])
        for start, end in _double_quote_pairs(text)
    )


# A trigger tag follows the last "@" of an inference line, which it cannot
# hold, to the end of the line.
_TRIGGER_TAG = re.compile(r"[\w.:-]+")


def parse_gold(document: str, source: str | None = None) -> list[GoldAnnotation]:
    """Parse gold blocks: headline line, '>>' inference lines, '||' terminator.

    An '@trigger' suffix on an inference line fills the trigger field and is
    stripped from the text.  '#' comment lines between blocks are ignored.
    Errors name ``source:line``; an unterminated block names its headline's.
    """
    annotations = []
    headline: str | None = None
    headline_line = 0
    inferences: list[GoldInference] = []
    for lineno, raw in enumerate(split_lines(document), start=1):
        line = raw.strip()
        if headline is None:
            if not line or line.startswith("#"):
                continue
            if line.startswith(">>"):
                raise FormatError(f"{located(source, lineno)}: inference before any headline")
            if line == "||":
                raise FormatError(f"{located(source, lineno)}: '||' before any headline")
            headline, headline_line = line, lineno
            inferences = []
        elif line.startswith(">>"):
            body = line[2:].strip()
            trigger = None
            text, at, tag = body.rpartition("@")
            if at and _TRIGGER_TAG.fullmatch(tag):
                body, trigger = text.strip(), tag
            if not body:
                raise FormatError(f"{located(source, lineno)}: empty inference under {headline!r}")
            # tuple.__new__ skips the Python-level __new__ of a NamedTuple.
            inferences.append(tuple.__new__(GoldInference, (body, trigger)))
        elif line == "||":
            annotations.append(GoldAnnotation(headline, tuple(inferences), headline_line))
            headline = None
        elif not line:
            continue
        else:
            raise FormatError(
                f"{located(source, lineno)}: expected '>>' or '||' inside block for {headline!r}"
            )
    if headline is not None:
        raise FormatError(
            f"{located(source, headline_line)}: missing '||' terminator for headline {headline!r}"
        )
    return annotations

