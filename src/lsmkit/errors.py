"""Exception types shared across the package, and the one rule for a count."""


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
