"""Exception types and input-location helpers shared across the package."""


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
