"""Exception types shared across the package, and the config checks that
raise them."""

import math
import numbers


class ConfigError(ValueError):
    """Invalid or inconsistent configuration input."""


def require_finite(owner, names) -> None:
    """Raise ConfigError unless every named attribute is a finite number
    (complex values need finite real and imaginary parts)."""
    for name in names:
        value = getattr(owner, name)
        ok = isinstance(value, numbers.Number) and not isinstance(value, bool)
        if ok:
            z = complex(value)
            ok = math.isfinite(z.real) and math.isfinite(z.imag)
        if not ok:
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


def require_integer(owner, names) -> None:
    """Raise ConfigError unless every named attribute is an integer."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


class SolverError(RuntimeError):
    """Base class for numerical-solver failures."""


class MonotonicityError(SolverError):
    """An ascent-guaranteed iteration decreased the objective beyond slack."""
