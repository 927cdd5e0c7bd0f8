"""Common error types shared across the toolchain.

Every error caused by user input (bad source text, malformed files,
ill-formed queries) derives from :class:`DfbError` so the command line
driver can map the whole family onto a single exit code. Genuine
programming errors keep raising the usual builtins.
"""

from __future__ import annotations


class DfbError(Exception):
    """Base class for all input-level errors raised by this package."""


class InvalidValue(DfbError, ValueError):
    """A flag or file value outside the range its consumer accepts."""


class ParseError(DfbError):
    """Rejected source text, with the position of the offending token.

    ``expected`` holds the token texts the parser would have accepted at
    that point; it may be empty when the failure is lexical. Two errors
    are equal when all four fields are.
    """

    __match_args__ = ("message", "line", "column", "expected")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, message: str, line: int, column: int,
                 expected: frozenset[str] = frozenset()):
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected

    def _fields(self) -> tuple:
        return self.message, self.line, self.column, self.expected

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(message={self.message!r}, "
                f"line={self.line!r}, column={self.column!r}, "
                f"expected={self.expected!r})")

    def __str__(self) -> str:
        text = f"{self.line}:{self.column}: {self.message}"
        if self.expected:
            text += " (expected " + ", ".join(sorted(self.expected)) + ")"
        return text
