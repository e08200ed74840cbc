"""Exception types shared across the package, and the number check every
config object makes when it is built."""

import math
from numbers import Integral, Real


class DimensionError(ValueError):
    """Tensor shapes do not match the operation's contract."""


class CapacityError(RuntimeError):
    """State space too large for an exact tabular computation."""


class ConfigError(ValueError):
    """Invalid experiment or solver configuration."""


class TrainingDivergedError(RuntimeError):
    """Q-network training produced NaN/inf values."""


def check_number(what: str, value, low: float, *, integer=False, strict=False) -> None:
    """Raise ``ConfigError`` unless ``value`` is a number (an integer if
    ``integer``) at least ``low``, or above it if ``strict``.  A bool is no
    number, and NaN and +-inf are no finite number."""
    ok = isinstance(value, Integral if integer else Real) and not isinstance(value, bool)
    if not (ok and abs(value) < math.inf and (value > low if strict else value >= low)):
        raise ConfigError(
            f"{what} must be {'>' if strict else '>='} {low:g} "
            f"({'an integer' if integer else 'a finite real number'}), got {value!r}"
        )
