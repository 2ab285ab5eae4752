"""Exception types shared across the package, and the config checks that
raise them."""

import math
import numbers


class ConfigError(ValueError):
    """Invalid or inconsistent configuration input."""


def _named_values(owner, names):
    """(name, value) per named attribute, or (``name[i]``, entry) per entry
    of a list attribute."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, list):
            yield from ((f"{name}[{i}]", v) for i, v in enumerate(value))
        else:
            yield name, value


def require_finite(owner, names) -> None:
    """Raise ConfigError unless every named attribute or list entry is a
    finite number (complex values need finite real and imaginary parts)."""
    for name, value in _named_values(owner, names):
        ok = isinstance(value, numbers.Number) and not isinstance(value, bool)
        if ok:
            z = complex(value)
            ok = math.isfinite(z.real) and math.isfinite(z.imag)
        if not ok:
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


def require_integer(owner, names) -> None:
    """Raise ConfigError unless every named attribute or list entry is an
    integer."""
    for name, value in _named_values(owner, names):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


class SolverError(RuntimeError):
    """Base class for numerical-solver failures."""


class MonotonicityError(SolverError):
    """An ascent-guaranteed iteration decreased the objective beyond slack."""
