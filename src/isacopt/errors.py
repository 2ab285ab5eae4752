"""Exception types shared across the package, and the config checks that
raise them."""

import math
import numbers
import sys


class ConfigError(ValueError):
    """Invalid or inconsistent configuration input."""


# Ranges (low, high, words) of config values, ends included.  A count sizes
# an array, so numpy must take it as an index; a real value is checked as
# its float, which is > 0 if and only if it is >= the least positive float.
COUNT = (1, sys.maxsize, f" in [1, {sys.maxsize}]")
UNIT = (0, 1, " in [0, 1]")
POSITIVE = (math.ulp(0.0), math.inf, " > 0")
NON_NEGATIVE = (0, math.inf, " >= 0")
REAL = (-math.inf, math.inf, "")

# (conversion, numbers ABC, exact types) of any number and of a real one
_NUMBER = (complex, numbers.Number, (float, int, complex))
_REAL = (float, numbers.Real, (float, int))


def _named_values(owner, names):
    """(name, value, range) per named attribute, or (``name[i]``, entry,
    range) per entry of a list attribute named as ``name[]``.  ``names``
    maps each name to its range, or is a sequence of names without one."""
    ranges = names if isinstance(names, dict) else dict.fromkeys(names)
    for name, within in ranges.items():
        value = getattr(owner, name.removesuffix("[]"))
        if not name.endswith("[]"):
            yield name, value, within
        elif isinstance(value, list):
            yield from ((f"{name[:-2]}[{i}]", v, within)
                        for i, v in enumerate(value))
        else:
            raise ConfigError(f"{name[:-2]} must be a list, got {value!r}")


def require_finite(owner, names) -> None:
    """Raise ConfigError unless every named attribute or list entry is a
    finite number (complex values need finite real and imaginary parts),
    and a real number in its range where ``names`` maps it to one.  Exact
    int, float and complex values skip the ``numbers`` checks."""
    for name, value, within in _named_values(owner, names):
        kind, abc, exact = _NUMBER if within is None else _REAL
        ok = type(value) in exact or (isinstance(value, abc)
                                      and not isinstance(value, bool))
        try:
            x = kind(value) if ok else math.nan
        except OverflowError:       # an integer too large for a float
            x = math.nan
        low, high, words = within or REAL
        if not (math.isfinite(x.real) and math.isfinite(x.imag)
                and low <= x.real <= high):
            raise ConfigError(f"{name} must be a finite "
                              f"{'real ' if within else ''}number{words}, "
                              f"got {value!r}")


def require_integer(owner, names) -> None:
    """Raise ConfigError unless every named attribute or list entry is an
    integer, and one in its range where ``names`` maps it to one.  Exact
    ints skip the slower ``numbers`` check."""
    for name, value, within in _named_values(owner, names):
        low, high, words = within or REAL
        if not (type(value) is int or isinstance(value, numbers.Integral)
                and not isinstance(value, bool)) or not low <= value <= high:
            raise ConfigError(f"{name} must be an integer{words}, "
                              f"got {value!r}")


class SolverError(RuntimeError):
    """Base class for numerical-solver failures."""


class MonotonicityError(SolverError):
    """An ascent-guaranteed iteration decreased the objective beyond slack."""
