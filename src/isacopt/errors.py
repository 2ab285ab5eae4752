"""Exception types shared across the package, and the config checks that
raise them."""

import math
import numbers


class ConfigError(ValueError):
    """Invalid or inconsistent configuration input."""


def _named_values(owner, names):
    """(name, value) per named attribute, or (``name[i]``, entry) per entry
    of a list attribute named as ``name[]``."""
    for name in names:
        value = getattr(owner, name.removesuffix("[]"))
        if name.endswith("[]"):
            yield from ((f"{name[:-2]}[{i}]", v) for i, v in enumerate(value))
        else:
            yield name, value


def require_finite(owner, names) -> None:
    """Raise ConfigError unless every named attribute or list entry is a
    finite number (complex values need finite real and imaginary parts).
    Exact int, float and complex values skip the ``numbers`` checks."""
    for name, value in _named_values(owner, names):
        ok = type(value) in (float, int, complex) or (
            isinstance(value, numbers.Number) and not isinstance(value, bool))
        try:
            z = complex(value) if ok else math.nan
        except OverflowError:       # an integer too large for a float
            z = math.nan
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


def require_integer(owner, names) -> None:
    """Raise ConfigError unless every named attribute or list entry is an
    integer.  Exact ints skip the slower ``numbers`` check."""
    for name, value in _named_values(owner, names):
        if type(value) is not int and (isinstance(value, bool) or
                                       not isinstance(value, numbers.Integral)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


class SolverError(RuntimeError):
    """Base class for numerical-solver failures."""


class MonotonicityError(SolverError):
    """An ascent-guaranteed iteration decreased the objective beyond slack."""
