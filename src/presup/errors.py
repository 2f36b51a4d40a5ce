"""Exception types shared across the package."""


class FormatError(ValueError):
    """An input file (dataset, gold, labels, lexicon, config) is malformed."""


class ParseError(ValueError):
    """A dependency-parse document cannot be read."""


class ConsistencyError(ParseError):
    """A parse was read but violates a structural invariant."""
