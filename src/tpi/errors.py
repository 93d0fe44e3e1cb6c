"""Exception types shared across the package, and the check of a count."""

import numbers


class InvalidArgumentError(ValueError):
    """Raised when an argument violates a documented precondition."""


class ResourceBudgetError(RuntimeError):
    """Raised when an operation would exceed a configured memory/size budget."""


class DegenerateIterateError(RuntimeError):
    """Raised when a power update hits a (measure-zero) zero contraction."""


def _check_count(value, name, least=1):
    """``value`` if it is an integer >= ``least`` (a numpy one counts, a bool not), else raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidArgumentError(f"{name} must be an integer >= {least}, got {value!r}")
    return value
