"""Exception types shared across the package, and the integer-argument check."""

import numbers


class DomainError(ValueError):
    """A parameter is outside the mathematical domain of the requested operation."""


class PaymentPositivityError(DomainError):
    """A payment schedule violates strict positivity (disable with strict=False)."""


class EnumerationBudgetError(DomainError):
    """An exact enumeration was requested beyond the supported horizon."""


class ShapeMismatchError(DomainError):
    """Analytic and oracle series cover different horizons."""


class NumericalFailureError(ArithmeticError):
    """A result is numerically invalid beyond tolerance (e.g. negative variance)."""


class FormulaAuditError(NumericalFailureError):
    """A specialized closed form disagrees with the general path beyond tolerance."""


def check_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """value as an int, else DomainError; bools are rejected.

    With low alone the value must be at least low; with both bounds it must
    lie in low..high.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if high is not None:
        if not low <= value <= high:
            raise DomainError(f"{name} must be in {low}..{high}, got {value}")
    elif low is not None and value < low:
        bound = "nonnegative" if low == 0 else f"at least {low}"
        raise DomainError(f"{name} must be {bound}, got {value}")
    return value
