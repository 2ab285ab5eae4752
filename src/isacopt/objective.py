"""Weighted-SNR objective: effective channels and the quadratic form.

For surface phases theta (unit modulus, Theta = diag(theta)) and precoder P
the objective is

    beta * SNR_R + (1 - beta) * SNR_C = tr(P P^H Omega).

Omega has rank <= 1 + K.  With t = G^T (theta o a), the round-trip radar
channel is alpha t t^T, the downlink channel is C = F + (H o theta^T) G,
and Omega = W^H diag(d) W over the rows W = [t^T; C] with weights
d = (beta |alpha|^2 ||t||^2 / sigma_R^2, (1 - beta) / sigma_C^2, ...).
``OmegaRows`` (rows X, one weight each) is the one form of Omega the
precoder stage takes; ``EffectiveChannels``, the ``OmegaRows`` of W at one
theta, is what an outer iteration works from: it scores a precoder from
the products Y = W P_nz over its nonzero columns
(``Precoder.nonzero_columns``), and that ``ScoredPoint`` is what the phase
step starts from and returns.
``build_omega`` (the dense Omega the tests check against),
``weighted_snr``, ``snr_radar`` and ``snr_comm`` evaluate the objective
from the dense channels alpha t t^T and C, formed in one helper.
``quartic_kernels`` gives the lifted quartic term's kernels densely, and
``gamma_n`` the rounding bound every derived allowance is written with.
``ChannelConstants``, the phase solvers' one channel input, holds what a
run reads at every theta (G^T, conj(G), conj(H), conj(a), the weights),
formed once per run from the channels and their scene ``cfg``; nothing is
cached on the ``ChannelSet``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
        if self.theta.size == 0:
            raise ConfigError("theta must not be an empty vector")
        if not np.max(np.abs(np.abs(self.theta) - 1.0)) <= 1e-12:
            raise ConfigError("theta entries must have unit modulus")

    @classmethod
    def unit(cls, theta: np.ndarray) -> "IrsPhase":
        """theta as it is, unit-modulus by construction (as exp(j angles) or
        x / |x| is), so its modulus is not checked again."""
        phase = cls.__new__(cls)
        phase.theta = theta
        return phase

    def __len__(self) -> int:
        return self.theta.size


@dataclass
class Precoder:
    """Transmit precoder, one column per served user."""

    p: np.ndarray
    # the nonzero columns of p as a contiguous array, where its maker hands
    # them over (factor_precoder); they must change with p
    nonzero: np.ndarray | None = field(default=None, repr=False,
                                       compare=False)

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=complex)
        if self.p.ndim != 2:
            raise ConfigError("precoder must be a matrix")

    def nonzero_columns(self) -> np.ndarray:
        """P_nz, the nonzero columns of p, which give the same P P^H: as
        handed over, or selected from p."""
        if self.nonzero is None:
            return self.p.compress(self.p.any(axis=0), axis=1)
        return self.nonzero

    def power(self) -> float:
        """tr(P P^H), the total transmit power."""
        return float(np.sum(np.abs(self.p) ** 2))


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize (M + M^H)/2 to suppress Hermitian drift."""
    return 0.5 * (m + m.conj().T)


# Machine epsilon of double precision, twice its unit roundoff.
EPS = float(np.finfo(float).eps)


def gamma_n(n: int, u: float = EPS / 2) -> float:
    """Higham's gamma_n = n u / (1 - n u), which bounds the relative error
    of n roundings to unit roundoff u, double's by default (*Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, Lemma 3.1)."""
    return n * u / (1.0 - n * u)


def _check_dims(theta: np.ndarray, ch: ChannelSet):
    l = ch.g.shape[0]
    if theta.size != l:
        raise ConfigError(f"theta length {theta.size} does not match surface size {l}")


def _dense_channels(theta: np.ndarray, ch, alpha: complex
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The round-trip radar channel alpha t t^T, t = G^T (theta o a), and the
    downlink channel C = F + (H o theta^T) G, from the G, H, F and a of
    ``ch``: a ``ChannelSet``, or the ``ChannelConstants`` formed from one."""
    _check_dims(theta, ch)
    t = ch.g.T @ (theta * ch.steer)
    return alpha * np.outer(t, t), ch.f + (ch.h * theta) @ ch.g


def snr_radar(p: Precoder, theta: IrsPhase, ch: ChannelSet, cfg: SceneConfig) -> float:
    c_r = _dense_channels(theta.theta, ch, cfg.alpha)[0]
    return float(np.sum(np.abs(c_r @ p.p) ** 2) / cfg.sigma2_radar)


def snr_comm(p: Precoder, theta: IrsPhase, ch: ChannelSet, cfg: SceneConfig) -> float:
    c_c = _dense_channels(theta.theta, ch, cfg.alpha)[1]
    return float(np.sum(np.abs(c_c @ p.p) ** 2) / cfg.sigma2_comm)


def weighted_snr(p: Precoder, theta: IrsPhase, ch: ChannelSet,
                 cfg: SceneConfig) -> float:
    """beta * SNR_R + (1 - beta) * SNR_C, always >= 0."""
    return cfg.beta * snr_radar(p, theta, ch, cfg) \
        + (1.0 - cfg.beta) * snr_comm(p, theta, ch, cfg)


def build_omega(theta: IrsPhase, ch: ChannelSet, cfg: SceneConfig) -> np.ndarray:
    """Hermitian PSD matrix with tr(P P^H Omega) equal to the weighted SNR."""
    c_r, c_c = _dense_channels(theta.theta, ch, cfg.alpha)
    return hermitize((cfg.beta / cfg.sigma2_radar) * (c_r.conj().T @ c_r)
                     + ((1.0 - cfg.beta) / cfg.sigma2_comm)
                     * (c_c.conj().T @ c_c))


class ChannelConstants:
    """What every outer iteration of one run reads of the channels: G, G^T,
    conj(G), H, conj(H), F, a, conj(a) and the weights c and cc.

    Built once per run from the channels and their scene ``cfg``, and
    carried by the ``EffectiveChannels`` it forms; never cached on the
    ``ChannelSet``, which callers keep.  The channel shapes are checked
    here, once, against the scene's L, N and K.
    """

    def __init__(self, ch: ChannelSet, cfg: SceneConfig):
        l, n, k = cfg.n_irs, cfg.n_tx, cfg.n_users
        shapes = ch.g.shape, ch.h.shape, ch.f.shape, ch.steer.shape
        if shapes != ((l, n), (k, l), (k, n), (l,)):
            raise ConfigError(f"channel dimensions are inconsistent: G, H, F, "
                              f"a are {shapes} for (L, N, K) = {(l, n, k)}")
        self.cfg = cfg
        self.g, self.h, self.f, self.steer = ch.g, ch.h, ch.f, ch.steer
        self.g_t, self.g_conj = ch.g.T, ch.g.conj()
        self.h_conj = ch.h.conj()
        self.a_conj = ch.steer.conj()
        self.c, self.cc = quartic_coefficient(cfg), comm_coefficient(cfg)
        self.alpha2 = abs(cfg.alpha) ** 2

    @functools.cached_property
    def abs_channels(self) -> tuple[np.ndarray, np.ndarray]:
        """(|G|^T |a|, |F| + |H| |G|): t = G^T (theta o a) and C in
        absolute value, the same at every theta, which bound the rounding
        of a computed objective (``irs.SurrogateFactors.dip_allowance``);
        formed on first use, once per run."""
        g_abs = np.abs(self.g)
        return (np.abs(self.steer) @ g_abs,
                np.abs(self.h) @ g_abs + np.abs(self.f))

    def channels(self, theta: IrsPhase) -> "EffectiveChannels":
        """t = G^T (theta o a) and C = (H o theta^T) G + F at theta, written
        in place into the rows W = [t^T; C]."""
        th = theta.theta
        rows = np.empty((1 + self.h.shape[0], self.g.shape[1]), dtype=complex)
        np.matmul(self.g_t, th * self.steer, out=rows[0])
        comm = rows[1:]
        np.matmul(self.h * th, self.g, out=comm)
        comm += self.f
        return EffectiveChannels(theta, rows, self)


class OmegaRows:
    """Omega = X^H diag(d) X over the r rows X (r x N), one real weight per
    row: the effective channels (r = 1 + K), or a dense Hermitian
    U diag(w) U^H as the rows U^H with the signed weights w (r = N)."""

    def __init__(self, rows: np.ndarray, weights: np.ndarray):
        self.rows, self.weights = rows, np.asarray(weights, dtype=float)

    def top_eigenpair(self) -> tuple[float, np.ndarray, float]:
        """(lambda_max(Omega), a unit top eigenvector u, ||Omega||_F), for
        weights d >= 0.

        From the r x r Gram matrix M M^H of the weighted rows M = D_r X,
        D_r = diag(sqrt(d / d_max)): lambda_max(Omega) = d_max
        lambda_max(M M^H), u is M^H v normalized (v the top eigenvector of
        M M^H) and ||Omega||_F = d_max ||M M^H||_F.  The weights are
        relative to d_max, so scaling them all by 2^k scales only d_max,
        exactly.  For Omega = 0, u is the last unit vector, as a dense
        ``eigh`` gives.
        """
        d_max = float(self.weights.max(initial=0.0))
        if d_max > 0.0:
            m = self.rows * np.sqrt(self.weights / d_max)[:, np.newaxis]
            m_h = m.conj().T
            gram = m @ m_h
            w, v = np.linalg.eigh(gram)
            lam = float(w[-1])
            if lam > 0.0:
                u = m_h @ v[:, -1]
                u /= math.sqrt(np.vdot(u, u).real)
                return (d_max * lam, u,
                        d_max * math.sqrt(np.vdot(gram, gram).real))
        u = np.zeros(self.rows.shape[1], dtype=complex)
        u[-1] = 1.0
        return 0.0, u, 0.0


class EffectiveChannels(OmegaRows):
    """The effective channels at one phase vector theta.

    ``rows`` is W = [t^T; C]: views ``t`` = G^T (theta o a), so the radar
    channel is alpha t t^T, and ``comm`` = C = F + (H o theta^T) G.
    Omega = W^H diag(d) W with ``weights`` d = (c ||t||^2, cc, ..., cc),
    c = ``quartic_coefficient`` and cc = ``comm_coefficient``.
    ``consts`` are the run's ``ChannelConstants`` that formed them, with
    the scene ``consts.cfg``.
    """

    def __init__(self, theta: IrsPhase, rows: np.ndarray,
                 consts: ChannelConstants):
        self.theta, self.consts, self.rows = theta, consts, rows
        self.t = t = rows[0]
        self.comm = rows[1:]
        self.q_w = float(np.vdot(t, t).real)      # ||t||^2
        self.weights = weights = np.empty(rows.shape[0])
        weights[0] = consts.c * self.q_w
        weights[1:] = consts.cc

    def score(self, p_nz: np.ndarray) -> "ScoredPoint":
        """The scored point here of a precoder P from its nonzero columns
        P_nz."""
        cfg = self.consts.cfg
        y = self.rows @ p_nz
        pt = y[0]
        s_r = (self.consts.alpha2 * float(np.vdot(pt, pt).real) * self.q_w
               / cfg.sigma2_radar)
        s_c = float(np.vdot(y[1:], y[1:]).real) / cfg.sigma2_comm
        return ScoredPoint(self.theta.theta,
                           cfg.beta * s_r + (1.0 - cfg.beta) * s_c,
                           self, s_r, s_c, y)


class ScoredPoint(NamedTuple):
    """A precoder P scored at phases theta (``EffectiveChannels.score``),
    the value both phase solvers step from and return, and the alternating
    loop's incumbent.  ``theta`` (the phase array) and ``g`` = beta SNR_R
    + (1 - beta) SNR_C = ||diag(sqrt d) Y||_F^2 come first, so it is the
    point (x, f, ...) of ``squarem.squarem_ascent``; ``channels`` are the
    ``EffectiveChannels`` at theta, ``snr_radar`` = |alpha|^2 ||Y[0]||^2
    ||t||^2 / sigma_R^2, ``snr_comm`` = ||Y[1:]||^2 / sigma_C^2, and ``y``
    the products Y = W P_nz (Y[0] = P_nz^T t, Y[1:] = C P_nz)."""

    theta: np.ndarray
    g: float
    channels: EffectiveChannels
    snr_radar: float
    snr_comm: float
    y: np.ndarray


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
