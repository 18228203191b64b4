"""Shared exception types."""


class GuardError(ValueError):
    """An enumeration guard was exceeded.

    Raised before any work by operations whose cost grows exponentially in
    the number of hyperplanes. Pass ``force=True`` (or ``--force`` on the
    command line) to run anyway, or raise the limit via the documented
    environment variable.
    """


class ParseError(ValueError):
    """An arrangement file, pattern string or sign string is malformed."""
