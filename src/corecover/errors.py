"""Shared exception types."""


class GuardError(ValueError):
    """An enumeration guard was exceeded.

    Raised before any work by operations whose cost grows exponentially in
    the number of hyperplanes. The limits are fixed; pass ``force=True`` (or
    ``--force`` on the command line) to run anyway.
    """


class ParseError(ValueError):
    """An arrangement file, pattern string or sign string is malformed."""
