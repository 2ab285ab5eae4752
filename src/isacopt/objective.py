"""Weighted-SNR objective: effective channels, quadratic form, decomposition.

For surface phases theta (unit modulus, Theta = diag(theta)) and precoder P
the objective is

    beta * SNR_R + (1 - beta) * SNR_C = tr(P P^H Omega),

which splits into terms of order 0, 1, 2 and 4 in theta.  The quartic term
is handled through the lifted variable X = Theta R Theta.  Its kernels Y
and Z are kept here as reference code, computed with O(L^3) matrix products
instead of the L^2 x L^2 Kronecker operator they represent; the phase
solver uses their rank-one factors instead (``irs.SurrogateFactors``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .scene import ChannelSet, SceneConfig


@dataclass
class IrsPhase:
    """Unit-modulus phase vector of the reflecting surface."""

    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=complex)
        if self.theta.ndim != 1:
            raise ConfigError("theta must be a vector")
        if np.max(np.abs(np.abs(self.theta) - 1.0)) > 1e-12:
            raise ConfigError("theta entries must have unit modulus")

    def __len__(self) -> int:
        return self.theta.size


@dataclass
class Precoder:
    """Transmit precoder, one column per served user."""

    p: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=complex)
        if self.p.ndim != 2:
            raise ConfigError("precoder must be a matrix")

    def power(self) -> float:
        """tr(P P^H), the total transmit power."""
        return float(np.sum(np.abs(self.p) ** 2))


@dataclass
class ObjectiveBreakdown:
    """Objective split by polynomial order in the surface phases."""

    g0: float
    g1: float
    g2: float
    g4: float
    total: float


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize (M + M^H)/2 to suppress Hermitian drift."""
    return 0.5 * (m + m.conj().T)


def _check_dims(theta: np.ndarray, ch: ChannelSet):
    l, n_t = ch.g.shape
    if theta.size != l:
        raise ConfigError(f"theta length {theta.size} does not match surface size {l}")
    if ch.h.shape[1] != l or ch.f.shape[1] != n_t or ch.h.shape[0] != ch.f.shape[0]:
        raise ConfigError("channel dimensions are inconsistent")


def effective_radar_channel(theta: IrsPhase, ch: ChannelSet,
                            cfg: SceneConfig) -> np.ndarray:
    """Round-trip radar channel alpha * G^T Theta a a^T Theta G (rank <= 1)."""
    _check_dims(theta.theta, ch)
    b = theta.theta * ch.steer
    t = ch.g.T @ b
    return cfg.alpha * np.outer(t, t)


def effective_comm_channel(theta: IrsPhase, ch: ChannelSet) -> np.ndarray:
    """Downlink channel F + H Theta G."""
    _check_dims(theta.theta, ch)
    return ch.f + (ch.h * theta.theta[np.newaxis, :]) @ ch.g


def snr_radar(p: Precoder, theta: IrsPhase, ch: ChannelSet, cfg: SceneConfig) -> float:
    c_r = effective_radar_channel(theta, ch, cfg)
    return float(np.sum(np.abs(c_r @ p.p) ** 2) / cfg.sigma2_radar)


def snr_comm(p: Precoder, theta: IrsPhase, ch: ChannelSet, cfg: SceneConfig) -> float:
    c_c = effective_comm_channel(theta, ch)
    return float(np.sum(np.abs(c_c @ p.p) ** 2) / cfg.sigma2_comm)


def weighted_snr(p: Precoder, theta: IrsPhase, ch: ChannelSet,
                 cfg: SceneConfig) -> float:
    """beta * SNR_R + (1 - beta) * SNR_C, always >= 0."""
    return cfg.beta * snr_radar(p, theta, ch, cfg) \
        + (1.0 - cfg.beta) * snr_comm(p, theta, ch, cfg)


def build_omega(theta: IrsPhase, ch: ChannelSet, cfg: SceneConfig) -> np.ndarray:
    """Hermitian PSD matrix with tr(P P^H Omega) equal to the weighted SNR."""
    c_r = effective_radar_channel(theta, ch, cfg)
    c_c = effective_comm_channel(theta, ch)
    omega = (cfg.beta / cfg.sigma2_radar) * (c_r.conj().T @ c_r) \
        + ((1.0 - cfg.beta) / cfg.sigma2_comm) * (c_c.conj().T @ c_c)
    return hermitize(omega)


def quartic_coefficient(cfg: SceneConfig) -> float:
    """Scale beta |alpha|^2 / sigma_R^2 of the fourth-order term."""
    return cfg.beta * abs(cfg.alpha) ** 2 / cfg.sigma2_radar


def comm_coefficient(cfg: SceneConfig) -> float:
    """Scale (1 - beta) / sigma_C^2 of the communication terms."""
    return (1.0 - cfg.beta) / cfg.sigma2_comm


def decompose_objective(p: Precoder, theta: IrsPhase, ch: ChannelSet,
                        cfg: SceneConfig) -> ObjectiveBreakdown:
    """Split the objective into g0 + g1 + g2 + g4 by order in theta.

    g0 collects the direct-link power, g1 the conjugate pair of direct/
    reflected cross terms (real by pairing), g2 the reflected downlink
    power and g4 the round-trip radar term.
    """
    _check_dims(theta.theta, ch)
    cc = comm_coefficient(cfg)
    fp = ch.f @ p.p
    g0 = cc * float(np.sum(np.abs(fp) ** 2))

    htg = (ch.h * theta.theta[np.newaxis, :]) @ ch.g
    htgp = htg @ p.p
    g1 = cc * 2.0 * float(np.real(np.vdot(fp, htgp)))
    g2 = cc * float(np.sum(np.abs(htgp) ** 2))

    b = theta.theta * ch.steer
    q_w = float(np.sum(np.abs(ch.g.T @ b) ** 2))          # b^H (G* G^T) b
    q_v = float(np.sum(np.abs(p.p.conj().T @ (ch.g.conj().T @ b.conj())) ** 2))
    g4 = quartic_coefficient(cfg) * q_w * q_v

    return ObjectiveBreakdown(g0=g0, g1=g1, g2=g2, g4=g4, total=g0 + g1 + g2 + g4)


def quartic_kernels(x: np.ndarray, v: np.ndarray, w: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Kernels Y, Z with vec(Y) = (V (x) W) vec(X), vec(Z) = (V (x) W)^T vec(X)*.

    Computed as Y = W X V^T and Z = W^T X* V, which are algebraically
    identical to applying the Kronecker operator but cost O(L^3) time and
    O(L^2) memory.  Reference code for the dense surrogate constructions; the
    phase solver never forms X, Y or Z.
    """
    if not (x.shape == v.shape == w.shape) or x.shape[0] != x.shape[1]:
        raise ConfigError(
            f"kernel factors must be square and equally sized, got "
            f"{x.shape}, {v.shape}, {w.shape}")
    y = w @ x @ v.T
    z = w.T @ x.conj() @ v
    return y, z


def quartic_kernels_reference(x: np.ndarray, v: np.ndarray, w: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Same kernels via the explicit Kronecker operator.

    Reference code for equivalence checks and micro-benchmarks only; the
    L^4 memory footprint restricts it to L <= 8.
    """
    if not (x.shape == v.shape == w.shape) or x.shape[0] != x.shape[1]:
        raise ConfigError("kernel factors must be square and equally sized")
    l = x.shape[0]
    if l > 8:
        raise ConfigError(f"explicit Kronecker path is limited to L <= 8, got L={l}")
    q = np.kron(v, w)
    x_vec = x.ravel(order="F")
    y = (q @ x_vec).reshape((l, l), order="F")
    z = (q.T @ x_vec.conj()).reshape((l, l), order="F")
    return y, z
