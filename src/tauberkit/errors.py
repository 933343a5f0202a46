"""Exception taxonomy shared across the package.

Every error raised by library code derives from TauberkitError so callers
can catch the package's failures without also swallowing programming bugs.
Where a stdlib category fits (LookupError, OverflowError, ...) the class
inherits from it too.
"""
from __future__ import annotations


class TauberkitError(Exception):
    """Base class for all package errors."""


class HorizonError(TauberkitError, LookupError):
    """A prefix or grid was not evaluated far enough for the request.

    Carries ``needed``, the smallest index (or threshold) that would have
    satisfied the request, when that is known.
    """

    def __init__(self, message: str, needed: int | float | None = None):
        super().__init__(message)
        self.needed = needed


class WeightDomainError(TauberkitError, ValueError):
    """A weight evaluated to a nonpositive or non-finite value."""


class PrefixOverflowError(TauberkitError, OverflowError):
    """Weight partial sums left the finite double range."""


class MonotonicityError(TauberkitError, ArithmeticError):
    """Partial sums failed to increase strictly (weights too small to register)."""


class ScalarKindError(TauberkitError, TypeError):
    """A complex-valued sequence was passed to an order-sensitive operation."""


class NonFiniteValueError(TauberkitError, ArithmeticError):
    """A sequence or accumulated numerator produced nan/inf inside a requested grid."""

    def __init__(self, message: str, m: int | None = None, n: int | None = None):
        super().__init__(message)
        self.m = m
        self.n = n


class ResourceLimitError(TauberkitError, MemoryError):
    """A requested evaluation would exceed the configured cell budget.

    Carries ``cells``, the size of the refused request, when that is known.
    """

    def __init__(self, message: str, cells: int | None = None):
        super().__init__(message)
        self.cells = cells
