"""Common error types shared across the toolchain.

Every error caused by user input (bad source text, malformed files,
ill-formed queries) derives from :class:`DfbError` so the command line
driver can map the whole family onto a single exit code. Genuine
programming errors keep raising the usual builtins.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class DfbError(Exception):
    """Base class for all input-level errors raised by this package."""


class InvalidValue(DfbError, ValueError):
    """A flag or file value outside the range its consumer accepts."""


@dataclass
class ParseError(DfbError):
    """Rejected source text, with the position of the offending token.

    ``expected`` holds the token texts the parser would have accepted at
    that point; it may be empty when the failure is lexical.
    """

    message: str
    line: int
    column: int
    expected: frozenset[str] = field(default_factory=frozenset)

    def __str__(self) -> str:
        text = f"{self.line}:{self.column}: {self.message}"
        if self.expected:
            text += " (expected " + ", ".join(sorted(self.expected)) + ")"
        return text
