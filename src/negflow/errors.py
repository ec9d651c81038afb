"""Exception types shared across the package, and `_Budget`: every capped
stage counts its work on one, and only a budget raises `CapExceeded`."""
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


class _Budget:
    """Counts work units against a hard cap of at least 1: ``spend`` raises
    CapExceeded, with ``detail``, once more than ``cap`` are used."""

    def __init__(self, kind: str, cap: int, detail: str = "") -> None:
        if cap < 1:
            raise ValueError("cap must be positive")
        self.kind = kind
        self.cap = cap
        self.detail = detail
        self.used = 0

    def spend(self, amount: int) -> None:
        self.used += amount
        if self.used > self.cap:
            raise CapExceeded(self.kind, self.cap, self.detail)


class NotACirculation(NegflowError):
    """A vector violates flow conservation or nonnegativity."""

    def __init__(self, message: str, node: int | None = None) -> None:
        self.node = node
        super().__init__(message)
