"""Exceptions shared across the package, and the config-value validators."""

import dataclasses
import math
import numbers


class DimensionMismatchError(ValueError):
    """Inputs whose shapes cannot be reconciled."""


class InvalidDomainError(ValueError):
    """Values outside the mathematical domain (non-finite, boundary weights, ...)."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class HessiansUnavailableError(RuntimeError):
    """An operation needed second derivatives the family does not provide."""


class DegenerateMetricError(RuntimeError):
    """The x-block of the Hessian is singular; its Schur complement is unavailable."""


class ProxNonConvergenceError(RuntimeError):
    """The inner solver exhausted its budget before meeting the tolerance.

    Carries the best iterate found so callers can inspect or report it.
    """

    def __init__(self, message, x=None, q=None, grad_norm=None, iterations=None):
        super().__init__(message)
        self.x = x
        self.q = q
        self.grad_norm = grad_norm
        self.iterations = iterations


def positive_number(value, name, error, integer=False):
    """`value` as a positive float, or as an int >= 1 when `integer`.

    Raises `error` (a ValueError subclass) for booleans, non-numbers, NaN,
    infinities, values out of range and, when `integer`, non-integral values,
    so a malformed setting never reaches a solver as a silent default.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise error(f"{name} must be finite, got {value!r}")
    if integer:
        if not number.is_integer() or number < 1:
            raise error(f"{name} must be an integer >= 1, got {value!r}")
        return int(value)
    if number <= 0:
        raise error(f"{name} must be positive, got {value!r}")
    return number


def positive_fields(record, error):
    """Validate, in declaration order, every `float` and `int` field of a dataclass.

    Each becomes `positive_number(value, name, error)`, with `integer` for
    `int` fields; frozen records are written through object.__setattr__.
    """
    for f in dataclasses.fields(record):
        if f.type in (float, int):
            value = positive_number(getattr(record, f.name), f.name, error, integer=f.type is int)
            object.__setattr__(record, f.name, value)
