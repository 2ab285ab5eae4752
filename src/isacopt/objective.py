"""Weighted-SNR objective: effective channels and the quadratic form.

For surface phases theta (unit modulus, Theta = diag(theta)) and precoder P
the objective is

    beta * SNR_R + (1 - beta) * SNR_C = tr(P P^H Omega).

The phase solvers score their iterates with the low-rank factors of
``irs.SurrogateFactors``; ``weighted_snr``, ``snr_radar`` and ``snr_comm``
evaluate the same quantities from the dense effective channels.
``quartic_kernels`` gives the lifted quartic term's kernels densely.
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


def quartic_kernels(x: np.ndarray, v: np.ndarray, w: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Kernels Y, Z with vec(Y) = (V (x) W) vec(X), vec(Z) = (V (x) W)^T vec(X)*.

    Computed as Y = W X V^T and Z = W^T X* V, which are algebraically
    identical to applying the Kronecker operator but cost O(L^3) time and
    O(L^2) memory.  The phase solver never forms X, Y or Z; ``irs``
    imports this for its dense quartic constructions, kept for the tracer.
    """
    if not (x.shape == v.shape == w.shape) or x.shape[0] != x.shape[1]:
        raise ConfigError(
            f"kernel factors must be square and equally sized, got "
            f"{x.shape}, {v.shape}, {w.shape}")
    y = w @ x @ v.T
    z = w.T @ x.conj() @ v
    return y, z
