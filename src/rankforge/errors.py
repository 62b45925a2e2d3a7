"""Shared exception types."""

from __future__ import annotations


class DomainSizeError(RuntimeError):
    """An exact enumeration would exceed its resource guard."""

    def __init__(self, needed: int, limit: int, what: str = "enumeration",
                 constant: str = "forms.DEFAULT_ENUM_GUARD"):
        super().__init__(
            f"{what} needs {needed} points but the guard allows {limit}"
            f" (set by rankforge.{constant})"
        )
        self.needed = needed
        self.limit = limit


class LemmaViolationError(AssertionError):
    """An exactly-checked structural identity failed.  Always a bug report."""
