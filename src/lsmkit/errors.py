"""Exception types shared across the package, and the one rule each for a
count and a real number."""

import numbers


class ConfigError(ValueError):
    """A parameter combination violates a construction contract."""


class NumericsError(ArithmeticError):
    """Simulation state contains non-finite values."""


class DatasetError(ValueError):
    """Dataset samples are inconsistent with each other or with the config."""


def check_int(name: str, value, low: int = 1) -> int:
    """``value`` if it is an integer >= ``low``: a non-integer (a bool
    included, which Python counts as one) is a ``TypeError``, a smaller
    integer a ``ConfigError``; both name ``name``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, not {value}")
    return value


def check_real(name: str, value):
    """``value`` if it is a real number: a bool (which Python counts as
    one), a string or any other non-real value is a ``TypeError`` that
    names ``name``.  Ranges stay with the caller."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, not {value!r}")
    return value
