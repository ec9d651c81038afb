"""Exception types shared across the package."""
from __future__ import annotations


class NegflowError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(NegflowError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str) -> None:
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class CapExceeded(NegflowError):
    """An enumeration or solve exceeded its explicit work cap."""

    def __init__(self, kind: str, cap: int, message: str = "") -> None:
        self.kind = kind
        self.cap = cap
        detail = f" ({message})" if message else ""
        super().__init__(f"{kind} cap {cap} exceeded{detail}")


class NotACirculation(NegflowError):
    """A vector violates flow conservation or nonnegativity."""

    def __init__(self, message: str, node: int | None = None) -> None:
        self.node = node
        super().__init__(message)

