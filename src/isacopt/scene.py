"""Scene parameters, steering vectors, Rician channel synthesis and unit helpers.

The radar transceiver is a uniform linear array (same element count on
transmit and receive), the reflecting surface a uniform planar array of
``irs_rows x irs_cols`` passive elements, and the downlink serves ``n_users``
single-antenna receivers.  Geometry is statistical: channels are drawn from a
Rician model with configurable K-factors, and large-scale losses are absorbed
into the round-trip coefficient and the noise powers.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import (COUNT, NON_NEGATIVE, POSITIVE, REAL, UNIT, ConfigError,
                     require_finite, require_integer)

TWO_PI = 2.0 * np.pi
_SQRT_HALF = 1.0 / np.sqrt(2.0)


def db_to_linear(x_db: float) -> float:
    """Convert a dB ratio to linear scale, 10**(x/10)."""
    return float(10.0 ** (x_db / 10.0))


def dbm_to_watts(x_dbm: float) -> float:
    """Convert dBm to watts, 10**((x - 30)/10)."""
    return float(10.0 ** ((x_dbm - 30.0) / 10.0))


_SCENE_COUNTS = dict.fromkeys(
    ("n_tx", "n_rx", "n_users", "irs_rows", "irs_cols"), COUNT)
# The range of each real field; alpha is complex and only finite.
_SCENE_REALS = {
    "spacing_over_lambda": POSITIVE, "beta": UNIT, "sigma2_radar": POSITIVE,
    "sigma2_comm": POSITIVE, "alpha": None, "power_budget": POSITIVE,
    "beampattern_tol": POSITIVE, "rician_g": NON_NEGATIVE,
    "rician_h": NON_NEGATIVE, "rician_f": NON_NEGATIVE, "target_azimuth": REAL,
    "target_elevation": REAL, "radar_irs_azimuth": REAL,
    "beampattern_mix": UNIT}


@dataclass
class SceneConfig:
    """Physical and weighting parameters of one scene.

    Powers are linear watts, angles radians, Rician factors linear ratios.
    ``alpha`` is the complex round-trip reflection coefficient of the
    radar -> surface -> target -> surface -> radar path; only its magnitude
    matters to the objective, so configs normally set the magnitude and let
    the experiment harness draw a uniform phase per realization.
    """

    n_tx: int = 16
    n_rx: int = 16
    n_users: int = 5
    irs_rows: int = 6          # L_y
    irs_cols: int = 6          # L_x
    spacing_over_lambda: float = 0.5
    beta: float = 0.5          # radar weight in the scalarized objective
    sigma2_radar: float = 1e-3
    sigma2_comm: float = 1e-3
    alpha: complex = 0.01 + 0.0j
    power_budget: float = 1.0
    beampattern_tol: float = 10.0
    rician_g: float = 1.0
    rician_h: float = 0.1
    rician_f: float = 0.1
    target_azimuth: float = math.pi / 4
    target_elevation: float = math.pi / 3
    # Transmit-side departure angle toward the surface; also steers the
    # directive component of the default desired beampattern.
    radar_irs_azimuth: float = 0.0
    # Directive-vs-omni mix of the default desired covariance, in [0, 1].
    beampattern_mix: float = 0.5

    def __post_init__(self):
        require_integer(self, _SCENE_COUNTS)
        require_finite(self, _SCENE_REALS)
        if self.n_rx != self.n_tx:
            raise ConfigError(
                f"receive antenna count must equal transmit count "
                f"(n_rx={self.n_rx}, n_tx={self.n_tx}): the round-trip "
                f"return channel is the transpose of the forward one"
            )
        if self.n_irs > sys.maxsize:
            raise ConfigError(f"surface size L = irs_rows * irs_cols = "
                              f"{self.n_irs} must be <= {sys.maxsize}")
        self.alpha = complex(self.alpha)

    @property
    def n_irs(self) -> int:
        """Total surface element count L."""
        return self.irs_rows * self.irs_cols


@dataclass
class ChannelSet:
    """One realization of all channels plus the target steering data
    (``make_channels`` gives every draw of a scene one read-only ``steer``)."""

    g: np.ndarray        # L x N_T, radar -> surface
    h: np.ndarray        # K x L, surface -> users
    f: np.ndarray        # K x N_T, radar -> users direct
    steer: np.ndarray    # length L

    def __post_init__(self):
        if not np.max(np.abs(np.abs(self.steer) - 1.0)) <= 1e-12:
            raise ConfigError("steering vector entries must have unit modulus")


def ula_spacing_check(config: SceneConfig) -> bool:
    """True iff the array spacing is the conventional half wavelength."""
    return abs(config.spacing_over_lambda - 0.5) <= 1e-12


def upa_steering(psi_a: float, psi_e: float, l_x: int, l_y: int,
                 d_over_lambda: float) -> np.ndarray:
    """Planar-array steering vector toward azimuth psi_a, elevation psi_e.

    Row (y) factor uses direction cosine cos(psi_a)sin(psi_e), column (x)
    factor sin(psi_a)sin(psi_e); the result is their Kronecker product
    (y-major), so entry p*l_x + q equals a_y[p] * a_x[q].  Entries are
    constructed as pure phases and the first entry is exactly 1.
    """
    if l_x < 1 or l_y < 1:
        raise ConfigError(f"array dimensions must be >= 1, got l_x={l_x}, l_y={l_y}")
    inc_y = TWO_PI * d_over_lambda * math.cos(psi_a) * math.sin(psi_e)
    inc_x = TWO_PI * d_over_lambda * math.sin(psi_a) * math.sin(psi_e)
    a_y = np.exp(1j * inc_y * np.arange(l_y))
    a_x = np.exp(1j * inc_x * np.arange(l_x))
    return np.outer(a_y, a_x).ravel()


def ula_steering(angle: float, n: int, d_over_lambda: float) -> np.ndarray:
    """Linear-array steering vector, phase increment 2*pi*(d/lambda)*sin(angle)."""
    if n < 1:
        raise ConfigError(f"array dimension must be >= 1, got {n}")
    return np.exp(1j * TWO_PI * d_over_lambda * math.sin(angle) * np.arange(n))


def complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard circular complex Gaussian entries, unit variance per entry:
    (x + jy) / sqrt(2), whose parts numpy forms as x and y times 1/sqrt(2)."""
    z = np.empty(shape, dtype=complex)
    np.multiply(rng.standard_normal(shape), _SQRT_HALF, out=z.real)
    np.multiply(rng.standard_normal(shape), _SQRT_HALF, out=z.imag)
    return z


def rician_channel(rows: int, cols: int, k_factor: float, los: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Rician draw sqrt(k/(1+k))*los + sqrt(1/(1+k))*N with N ~ CN(0, I).

    ``los`` must be a unit-modulus (typically rank-one) matrix so that the
    expected squared Frobenius norm of the output is rows*cols.
    """
    if k_factor < 0:
        raise ConfigError(f"Rician K-factor must be non-negative, got {k_factor}")
    if los.shape != (rows, cols):
        raise ConfigError(f"LOS shape {los.shape} does not match ({rows}, {cols})")
    w_los = math.sqrt(k_factor / (1.0 + k_factor))
    w_nlos = math.sqrt(1.0 / (1.0 + k_factor))
    out = complex_normal(rng, rows, cols)
    out *= w_nlos
    return np.add(out, w_los * los, out=out)


def random_phase_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(1j * TWO_PI * rng.random(n))


@functools.lru_cache(maxsize=16)
def _scene_vectors(azimuth: float, elevation: float, l_x: int, l_y: int,
                   d_over_lambda: float, radar_azimuth: float, n_tx: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The target steering vector and the radar-side ULA factor of the LOS
    of G: they depend on the scene alone, and every draw shares them."""
    steer = upa_steering(azimuth, elevation, l_x, l_y, d_over_lambda)
    ula = ula_steering(radar_azimuth, n_tx, d_over_lambda)
    steer.flags.writeable = ula.flags.writeable = False
    return steer, ula


def make_channels(cfg: SceneConfig, rng: np.random.Generator) -> ChannelSet:
    """Draw one channel realization for the scene.

    The radar->surface link gets a steering-based line-of-sight component
    (random arrival angles on the surface side, the configured departure
    angle on the radar side); the surface->user and direct links get
    random-phase rank-one LOS components since their scattered part
    dominates anyway.  The target steering vector depends on the scene
    alone, so every draw of one scene shares it, read-only.
    """
    lx, ly, d = cfg.irs_cols, cfg.irs_rows, cfg.spacing_over_lambda
    steer, ula = _scene_vectors(cfg.target_azimuth, cfg.target_elevation,
                                lx, ly, d, cfg.radar_irs_azimuth, cfg.n_tx)

    az = rng.uniform(0.0, TWO_PI)
    el = rng.uniform(0.0, np.pi)
    los_g = np.outer(upa_steering(az, el, lx, ly, d), ula)
    g = rician_channel(cfg.n_irs, cfg.n_tx, cfg.rician_g, los_g, rng)

    los_h = np.outer(random_phase_vector(rng, cfg.n_users),
                     random_phase_vector(rng, cfg.n_irs))
    h = rician_channel(cfg.n_users, cfg.n_irs, cfg.rician_h, los_h, rng)

    los_f = np.outer(random_phase_vector(rng, cfg.n_users),
                     random_phase_vector(rng, cfg.n_tx))
    f = rician_channel(cfg.n_users, cfg.n_tx, cfg.rician_f, los_f, rng)

    return ChannelSet(g=g, h=h, f=f, steer=steer)


# --- JSON configuration loading -------------------------------------------
#
# dB-valued keys carry a "_db" suffix (plain ratio) or "_dbm" suffix (power
# referenced to 1 mW) and are converted on load: a power takes either, a
# power ratio "_db" only, and no other field a suffix.  The round-trip
# coefficient is configured through its magnitude as "alpha_mag" or
# "alpha_mag_db".

_ALPHA_KEYS = {"alpha_mag": complex,
               "alpha_mag_db": lambda v: complex(db_to_linear(v))}
_DB_UNITS = {"db": ("dB", db_to_linear), "dbm": ("dBm", dbm_to_watts)}
# The suffixes each dB-valued field takes.
DB_FIELDS = {
    **dict.fromkeys(("power_budget", "sigma2_radar", "sigma2_comm"),
                    ("db", "dbm")),
    **dict.fromkeys(("rician_g", "rician_h", "rician_f", "eps_rel"),
                    ("db",))}


def convert_suffixed(raw: dict, valid_names: set[str], where: str) -> dict:
    """Map JSON-style keys onto field names, converting dB-suffixed values.

    Raises ConfigError for a section that is not an object, a key that
    names no field in ``valid_names``, a dB suffix on a field that does not
    take it (``DB_FIELDS``), two keys that set the same field, and a
    converted value that is not a real number.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    out: dict = {}
    for key, value in raw.items():
        base, _, suffix = key.rpartition("_")
        if key in _ALPHA_KEYS and "alpha" in valid_names:
            name, convert = "alpha", _ALPHA_KEYS[key]
        elif key in valid_names:
            name, convert = key, None
        elif suffix in _DB_UNITS and base in valid_names:
            unit, convert = _DB_UNITS[suffix]
            if suffix not in DB_FIELDS.get(base, ()):
                raise ConfigError(f"{where}: '{key}': {base} takes no value "
                                  f"in {unit}")
            name = base
        else:
            raise ConfigError(f"{where}: unknown key '{key}'")
        if name in out:
            raise ConfigError(f"{where}: '{key}' duplicates an already-set field '{name}'")
        if convert is not None:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{where}: '{key}' must be a real number, "
                                  f"got {value!r}")
            try:
                value = convert(float(value))
            except OverflowError:
                raise ConfigError(f"{where}: '{key}' = {value!r} is out of "
                                  f"range") from None
        out[name] = value
    return out


def scene_config_from_dict(raw: dict) -> SceneConfig:
    """Build a SceneConfig from a JSON-style dict, converting dB fields."""
    names = {f.name for f in fields(SceneConfig)}
    return SceneConfig(**convert_suffixed(raw, names, "scene config"))
