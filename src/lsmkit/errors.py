"""Exception types shared across the package, and the one rule each for a
count and a real number."""

import math
import numbers
import operator


_HOLDS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


class ConfigError(ValueError):
    """A parameter combination violates a construction contract."""


class NumericsError(ArithmeticError):
    """Simulation state contains non-finite values."""


class DatasetError(ValueError):
    """Dataset samples are inconsistent with each other or with the config."""


def check_int(name: str, value, low: int = 1):
    """``value`` if it is an integer >= ``low``: a non-integer (a bool
    included, which Python counts as one) is a ``TypeError``, a smaller
    integer a ``ConfigError``; both name ``name``.  Any integral type,
    such as ``np.int64``, is an integer; ``np.bool_`` is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, not {value}")
    return value


def check_real(name: str, value, *, above=None, at_least=None, below=None, at_most=None):
    """``value``, unchanged, if it is a finite real number within the bounds
    given: ``> above``, ``>= at_least``, ``< below``, ``<= at_most``.  A bool
    (which Python counts as a number), a string or any other non-real value
    is a ``TypeError``; NaN, an infinity or a value outside the bounds is a
    ``ConfigError``.  Both name ``name``, such as ``theta must be a finite
    number > 0, not nan``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, not {value!r}")
    bounds = {">": above, ">=": at_least, "<": below, "<=": at_most}
    bounds = {sign: bound for sign, bound in bounds.items() if bound is not None}
    # an integer is finite even past the float range math.isfinite converts
    finite = isinstance(value, numbers.Integral) or math.isfinite(value)
    if not (finite and all(_HOLDS[sign](value, bound) for sign, bound in bounds.items())):
        wanted = " and".join(f" {sign} {bound}" for sign, bound in bounds.items())
        raise ConfigError(f"{name} must be a finite number{wanted}, not {value!r}")
    return value
