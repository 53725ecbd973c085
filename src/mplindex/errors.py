"""Exception types shared across the package, and the check that refuses
an argument of the wrong numeric type.

Two families matter for exit-code mapping in the CLI: ValidationError
(bad input data, exit 1) and EstimationError (a numerical step cannot
be completed, exit 2).  A magnitude that a solve or an update cannot
carry in floats is a plain EstimationError with OVERFLOW_MESSAGE.
"""

from __future__ import annotations

import numbers


class MplIndexError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MplIndexError):
    """Input data violates a structural contract."""


class EstimationError(MplIndexError):
    """A numerical estimation step cannot be completed."""


OVERFLOW_MESSAGE = ("Gram blocks overflow: values or quantities are too large "
                    "or too small in magnitude")


class DuplicateObservation(ValidationError):
    """The same (item, unit) cell appears more than once in the input."""


class InconsistentCell(ValidationError):
    """A cell mixes positive and nonpositive value/quantity entries."""


class FormatError(ValidationError):
    """A row of the input stream cannot be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyBasket(ValidationError):
    """No item satisfies the reference-basket rule."""


class BasketViolation(ValidationError):
    """An item is present in fewer than two units."""


class InvalidDimension(ValidationError):
    """A dimension argument is out of range for the requested operation."""


class UnidentifiedModel(ValidationError):
    """The presence graph is disconnected, so level effects are not identified."""

    def __init__(self, message: str, components: tuple | None = None):
        super().__init__(message)
        self.components = components or ()


class SingularSystem(EstimationError):
    """The least-squares system is rank deficient."""

    def __init__(self, message: str, column: str | None = None):
        if column is not None:
            message = f"{message} (dependent column: {column})"
        super().__init__(message)
        self.column = column


class RedrawExhausted(EstimationError):
    """Noise persistently drives simulated values nonpositive."""


def require_number(name: str, value, kind=numbers.Real) -> None:
    """Raise ValidationError unless value is a kind of number; a bool never is."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a real number"
        raise ValidationError(f"{name} must be {what}, not {type(value).__name__}")
