"""Exception types and input-location helpers shared across the package."""

from pathlib import Path


class FormatError(ValueError):
    """An input file (dataset, gold, labels, lexicon, config) is malformed."""


class ParseError(ValueError):
    """A dependency-parse document cannot be read."""


class ConsistencyError(ParseError):
    """A parse was read but violates a structural invariant."""


def located(source: str | None, lineno: int) -> str:
    """Where an input error is: ``source:lineno``, or ``line N`` when the
    text has no file name."""
    return f"{source}:{lineno}" if source else f"line {lineno}"


def split_lines(text: str) -> list[str]:
    """The lines of an input text.  Only "\n" (or "\r\n") ends a line:
    str.splitlines also ends one at U+2028, U+0085 and the like, which a
    CoNLL-U FORM, a headline or a JSON string may hold raw."""
    return text.replace("\r\n", "\n").split("\n")


def content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, line stripped) for each line of ``text`` that is neither
    blank nor a ``#`` comment."""
    lines = enumerate(map(str.strip, split_lines(text)), start=1)
    return [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]


def read_text(path) -> str:
    """The text of the input file at ``path``: its bytes decoded as UTF-8
    with no newline translation, so that only split_lines ends a line, and
    one leading byte-order mark dropped.  Bytes that are not UTF-8 are a
    FormatError at ``path:line``."""
    data = Path(path).read_bytes()
    try:
        # Not "utf-8-sig": its error offsets would not count the mark's bytes.
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{lineno}: not valid UTF-8") from None
    return text.removeprefix("\ufeff")
