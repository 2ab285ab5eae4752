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


class DykstraError(SolverError):
    """Cyclic projection failed to reach the requested feasibility tolerance."""

    def __init__(self, message: str, worst_violation: float):
        super().__init__(message)
        self.worst_violation = worst_violation


class RandomizationInfeasibleError(SolverError):
    """No randomized precoder candidate satisfied the constraints."""


class MonotonicityError(SolverError):
    """An ascent-guaranteed iteration decreased the objective beyond slack."""
