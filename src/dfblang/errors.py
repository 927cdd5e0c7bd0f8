"""Common error types shared across the toolchain.

Every error caused by user input (bad source text, malformed files,
ill-formed queries) derives from :class:`DfbError` so the command line
driver can map the whole family onto a single exit code. Genuine
programming errors keep raising the usual builtins.
"""

from __future__ import annotations

from .record import Record


class DfbError(Exception):
    """Base class for all input-level errors raised by this package."""


class InvalidValue(DfbError, ValueError):
    """A flag or file value outside the range its consumer accepts."""


class ParseError(DfbError):
    """Rejected source text, with the position of the offending token.

    ``expected`` holds the token texts the parser would have accepted at
    that point; it may be empty when the failure is lexical. Two errors
    are equal when all four fields are; like any exception, an error
    stays mutable, so it has no hash.
    """

    __match_args__ = ("message", "line", "column", "expected")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, message: str, line: int, column: int,
                 expected: frozenset[str] = frozenset()):
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected

    _fields = Record._fields
    __eq__ = Record.__eq__
    __repr__ = Record.__repr__

    def __str__(self) -> str:
        text = f"{self.line}:{self.column}: {self.message}"
        if self.expected:
            text += " (expected " + ", ".join(sorted(self.expected)) + ")"
        return text
