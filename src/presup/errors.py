"""Exception types shared across the package."""


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
