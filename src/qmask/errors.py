"""Exception types shared across the package, and the check that a tolerance is usable.

The CLI maps these onto its exit-code contract: invalid input -> 1,
I/O failures (plain OSError) -> 2, internal invariant violations -> 3.
"""

import math


class MaskingError(Exception):
    """Base class for all qmask errors."""


class InvalidInputError(MaskingError, ValueError):
    """Malformed or out-of-domain input (non-finite values, bad ranges, parse failures)."""


class EmptyCircleError(InvalidInputError):
    """Requested plane offset |c| > 1: the plane misses the unit sphere."""


class CorruptShareError(InvalidInputError):
    """A share whose reduced state violates the masking structure; ``index`` is its position in the checked list."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class InvalidSchemeError(InvalidInputError):
    """A masker scheme below its minimum size or with out-of-range parameters."""


class InvariantViolationError(MaskingError):
    """An internal consistency check failed (e.g. a nonzero operator classifying as full-sphere)."""


def check_positive_finite(value: float, name: str) -> None:
    """The one rule for a tolerance given from outside: InvalidInputError unless it is positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise InvalidInputError(f"{name} must be a positive finite number")
