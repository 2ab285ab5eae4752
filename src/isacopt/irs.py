"""Surface-phase sub-problem: double-minorization solver and manifold baseline.

With the precoder fixed, the objective g is quartic in the unit-modulus
phase vector theta.  One minorization flattens the quartic term to a
quadratic through the lifted variable X = Theta R Theta (valid because the
lifted quadratic form is PSD); a second one flattens the quadratic surrogate
to a linear form, whose maximizer on the torus is a closed-form phase
alignment.

The second flattening is only a true minorizer if the quadratic surrogate
is convex in the real representation.  Its quartic-origin part has a
trace-zero indefinite Hessian, so the plain linearization can (and in
radar-weighted scenes does) decrease the objective.  The solver
therefore composes the same building blocks through two value-preserving
repairs that restore the ascent guarantee: the quartic cross matrices are
symmetrized (quadratic forms only see the symmetric part), and a
torus-constant anchor rho * theta^H theta is added and subtracted, with rho
the smallest value making the loaded form convex.  The linear surrogate
vector is then the Wirtinger gradient plus rho * theta, and the update is

    theta <- exp(j arg(grad g(theta) + rho * theta)).

rho is zero whenever the surrogate is already convex, in which case the
update coincides with the plain one.  The plain composition itself is test
reference code (``tests/reference.py``).

Every rule of both phase solvers is relative or an exact-zero test, so
noise powers scaled by 2^k give bit-identical phases.  Where nu_i = 0 any
phase maximizes the linear minorizer, so the update needs no rule there.

No L x L matrix is formed on the solver path.  R = a a^T is rank one, so
X = b b^T with b = theta o a and every surrogate piece is low rank: the
quartic matrices are U1 = c p q^T and U2 = conj(U1), the communication form
is U3 = Psi Psi^H with K_u * rank(P) columns in Psi, and mu = diag(U4) is a
row sum.  The anchor's displacement form vanishes off span{p, q, Psi}, so
rho comes from the same eigenproblem compressed onto an orthonormal basis
of that span, (2m) x (2m) with m <= K_u * K + 2 instead of 2L x 2L.  One
inner iteration costs O(L (N + m^2)).

``SurrogateFactors`` is built once per precoder and is the objective kernel
of both phase solvers: each iterate is scored from the q_v, q_w and G P
that the next linearization reuses, and the solvers report the score.

``build_quadratic_terms`` returns the dense U3, which the
approximation-ratio study needs.  The dense quartic constructions
(``quartic_kernels``, ``build_quartic_surrogate``,
``linear_surrogate_vectors``) run on no solver path and form R = a a^T
from the steering vector themselves; they stay here, under these names,
because perfbench's tracer wraps them in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MonotonicityError
from .objective import (IrsPhase, Precoder, comm_coefficient, hermitize,
                        quartic_coefficient, quartic_kernels)
# The solvers score iterates with SurrogateFactors.value; the name stays a
# module attribute because perfbench's tracer wraps it here by name.
from .objective import weighted_snr  # noqa: F401
from .scene import ChannelSet, SceneConfig


@dataclass
class InnerTrace:
    """Objective bookkeeping of one inner solve.

    ``objectives`` is the weighted SNR at the start and after each accepted
    update; ``snapshot`` is (g, SNR_R, SNR_C) at the returned phases, so
    ``snapshot[0] == objectives[-1]``.
    """

    objectives: list[float] = field(default_factory=list)
    snapshot: tuple[float, float, float] = (math.nan, math.nan, math.nan)
    line_search_failed: bool = False


class SurrogateFactors:
    """Objective and surrogate pieces for one precoder, in low-rank factors.

    GP = G P and FP = F P over the nonzero columns of P (dropping zero
    columns leaves P P^H unchanged), so V b = conj(GP) (GP^T b) and
    W b = conj(G) (G^T b).  The communication form is U3 = Psi Psi^H, with
    column (k, j) of Psi equal to sqrt(cc) conj(h_k o gp_j), and
    mu = diag(U4) = cc sum_j gp_j o ((FP)^H H)_j.
    """

    def __init__(self, p: Precoder, ch: ChannelSet, cfg: SceneConfig):
        p_nz = p.p[:, np.any(p.p != 0, axis=0)]
        cc = comm_coefficient(cfg)
        self.c = quartic_coefficient(cfg)
        self.cfg = cfg
        self.steer = ch.steer
        self.g = ch.g
        self.h = ch.h
        self.gp = ch.g @ p_nz
        self.fp = ch.f @ p_nz
        self.psi = math.sqrt(cc) * (ch.h.T[:, :, None] * self.gp[:, None, :]
                                    ).reshape(len(ch.steer), -1).conj()
        self.mu = cc * np.sum(self.gp * (self.fp.conj().T @ ch.h).T, axis=1)

    def value(self, theta: np.ndarray, quartic: tuple
              ) -> tuple[float, float, float]:
        """(g, SNR_R, SNR_C) at theta, g = beta SNR_R + (1 - beta) SNR_C.

        SNR_R = |alpha|^2 q_v q_w / sigma_R^2 and
        SNR_C = ||FP + (H o theta^T) GP||^2 / sigma_C^2; ``quartic`` is
        ``self.quartic(theta)``.
        """
        _, _, q_v, q_w = quartic
        cfg = self.cfg
        s_r = abs(cfg.alpha) ** 2 * q_v * q_w / cfg.sigma2_radar
        comm = self.fp + (self.h * theta) @ self.gp
        s_c = float(np.real(np.vdot(comm, comm))) / cfg.sigma2_comm
        return cfg.beta * s_r + (1.0 - cfg.beta) * s_c, s_r, s_c

    def quartic(self, theta: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, float, float]:
        """(p, q, q_v, q_w) at theta: p = a* o V b and q = a* o W b give
        U1 = c p q^T, and q_v = b^H V b, q_w = b^H W b."""
        b = theta * self.steer
        vb = self.gp.conj() @ (self.gp.T @ b)
        wb = self.g.conj() @ (self.g.T @ b)
        q_v = float(np.real(np.vdot(b, vb)))
        q_w = float(np.real(np.vdot(b, wb)))
        a_conj = self.steer.conj()
        return a_conj * vb, a_conj * wb, q_v, q_w

    def comm(self, theta: np.ndarray) -> np.ndarray:
        """U3 theta + mu*, the communication part of the gradient."""
        return self.psi @ (self.psi.conj().T @ theta) + self.mu.conj()

    def gradient(self, theta: np.ndarray, pv: np.ndarray, qv: np.ndarray,
                 q_v: float, q_w: float) -> np.ndarray:
        """Wirtinger gradient from the quartic factors at theta."""
        return self.c * (q_w * pv + q_v * qv) + self.comm(theta)

    def linearize(self, theta: np.ndarray, quartic: tuple) -> np.ndarray:
        """nu = grad g(theta) + rho theta, with the exact anchor rho and
        ``quartic`` = ``self.quartic(theta)``."""
        pv, qv, q_v, q_w = quartic
        rho = self.anchor(pv, qv)
        return self.gradient(theta, pv, qv, q_v, q_w) + rho * theta

    def anchor(self, pv: np.ndarray, qv: np.ndarray) -> float:
        """Exact ascent anchor, from the eigenproblem on span{p, q, Psi}.

        With [p, q, Psi] = Q R, R holds the coordinates Q^H [p, q, Psi];
        the displacement form is zero on the orthogonal complement, so
        the compressed form has the same smallest negative eigenvalue.
        """
        r = np.linalg.qr(np.column_stack([pv, qv, self.psi]), mode="r")
        pt, qt, psit = r[:, 0], r[:, 1], r[:, 2:]
        u1_sym = 0.5 * self.c * (np.outer(pt, qt) + np.outer(qt, pt))
        return ascent_anchor(u1_sym, psit @ psit.conj().T)


def _kernel_factors(p: Precoder, ch: ChannelSet) -> tuple[np.ndarray, np.ndarray]:
    """V = (G P P^H G^H)^T and W = G* G^T, both Hermitian PSD."""
    gp = ch.g @ p.p
    v = hermitize((gp @ gp.conj().T).T)
    w = hermitize(ch.g.conj() @ ch.g.T)
    return v, w


def _lifted_kernels(theta_t: IrsPhase, p: Precoder, ch: ChannelSet
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X_t = Theta_t R Theta_t and its kernels (Y, Z), as dense L x L."""
    v, w = _kernel_factors(p, ch)
    th = theta_t.theta
    x_t = (th[:, None] * np.outer(ch.steer, ch.steer)) * th[None, :]
    y, z = quartic_kernels(x_t, v, w)
    return x_t, y, z


def build_quartic_surrogate(theta_t: IrsPhase, p: Precoder, ch: ChannelSet,
                            cfg: SceneConfig) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic surrogate matrices (U1, U2) of the quartic term at theta_t.

    Dense quartic construction, kept for the tracer: the solver uses the
    rank-one factors of ``SurrogateFactors`` instead.  U1 = c (R^H o Y^T)
    and U2 = c (R o Z^T) with c = beta |alpha|^2 / sigma_R^2 and (Y, Z) the
    kernels at X_t = Theta_t R Theta_t.  The surrogate theta^H U1 theta* +
    theta^T U2 theta minorizes the quartic term after restoring the dropped
    constant c * vec(X_t)^H Q vec(X_t).
    """
    _, y, z = _lifted_kernels(theta_t, p, ch)
    c = quartic_coefficient(cfg)
    r = np.outer(ch.steer, ch.steer)
    u1 = c * (r.conj() * y.T)
    u2 = c * (r * z.T)
    return u1, u2


def build_quadratic_terms(p: Precoder, ch: ChannelSet, cfg: SceneConfig
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Dense quadratic form U3 (Hermitian PSD by the Schur product theorem)
    and linear coefficient mu = diag(U4) of the communication terms.

    The approximation-ratio study needs U3 as a matrix.  The solver uses the
    factor ``SurrogateFactors.psi`` and the row-sum ``SurrogateFactors.mu``,
    for which this is the reference.
    """
    cc = comm_coefficient(cfg)
    gp = ch.g @ p.p
    m = gp @ gp.conj().T
    u3 = hermitize(cc * ((ch.h.conj().T @ ch.h) * m.T))
    u4 = cc * (gp @ (ch.f @ p.p).conj().T @ ch.h)
    return u3, np.diagonal(u4).copy()


def linear_surrogate_vectors(theta_t: IrsPhase, u1: np.ndarray, u2: np.ndarray,
                             u3: np.ndarray, mu: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Linearization vectors of the quadratic surrogate at theta_t:

        nu  = 2 U1^T theta_t* + U3 theta_t + mu*
        eta = 2 U2^T theta_t  + U3^T theta_t* + mu

    Dense quartic construction, kept for the tracer: with the rank-one U1
    the solver forms nu from the gradient, where eta = conj(nu), and steps
    to exp(j arg nu).
    """
    th = theta_t.theta
    nu = 2.0 * u1.T @ th.conj() + u3 @ th + mu.conj()
    eta = 2.0 * u2.T @ th + u3.T @ th.conj() + mu
    return nu, eta


def irs_phase_update(nu: np.ndarray) -> IrsPhase:
    """Torus maximizer of Re{theta^H nu}: exp(j arg nu), scale-free.

    Where nu_i = 0 every phase maximizes; arg fixes one (1 for nu_i = +0).
    """
    return IrsPhase(np.exp(1j * np.angle(nu)))


def ascent_anchor(u1_sym: np.ndarray, u3: np.ndarray) -> float:
    """Smallest rho >= 0 making the surrogate's real quadratic form convex.

    The displacement form is 2 Re{d^H U1s d*} + d^H U3 d; its real
    representation is assembled blockwise and rho = max(0, -lambda_min).
    """
    m = u3.shape[0]
    x2, y2 = 2.0 * u1_sym.real, 2.0 * u1_sym.imag
    h = np.empty((2 * m, 2 * m))
    np.add(x2, u3.real, out=h[:m, :m])
    np.subtract(y2, u3.imag, out=h[:m, m:])
    h[m:, :m] = h[:m, m:].T
    np.subtract(u3.real, x2, out=h[m:, m:])
    lam_min = float(np.linalg.eigvalsh(0.5 * (h + h.T))[0])
    return max(0.0, -lam_min) * (1.0 + 1e-9)


# Relative objective gain at which both phase solvers stop.
_INNER_TOL = 1e-6


def solve_irs_minorization(theta0: IrsPhase, p: Precoder, ch: ChannelSet,
                           cfg: SceneConfig, inner_max: int = 200
                           ) -> tuple[IrsPhase, InnerTrace]:
    """Iterate the closed-form double-minorization update to convergence.

    Each iteration linearizes the surrogate at the current phases and
    applies the phase-alignment update; the quartic factors taken to score
    the new phases are the ones the next linearization expands around.  It
    stops once |g_new - g_prev| <= ``_INNER_TOL`` |g_prev| or after
    ``inner_max`` iterations.  The recorded objective sequence is the
    true weighted SNR and must be nondecreasing (guaranteed by the anchor);
    a dip beyond 1e-9 relative slack raises.
    """
    if inner_max < 1:
        raise ConfigError(f"inner_max must be >= 1, got {inner_max}")
    factors = SurrogateFactors(p, ch, cfg)
    trace = InnerTrace()
    theta = theta0.theta
    quartic = factors.quartic(theta)
    snapshot = factors.value(theta, quartic)
    trace.objectives.append(snapshot[0])
    for _ in range(inner_max):
        nu = factors.linearize(theta, quartic)
        new_theta = irs_phase_update(nu).theta
        quartic = factors.quartic(new_theta)
        new_snapshot = factors.value(new_theta, quartic)

        g_prev, g_new = snapshot[0], new_snapshot[0]
        if g_new < g_prev - 1e-9 * abs(g_prev):
            raise MonotonicityError(
                f"objective decreased from {g_prev:.12g} to {g_new:.12g} "
                f"in the inner phase update")
        trace.objectives.append(g_new)
        done = abs(g_new - g_prev) <= _INNER_TOL * abs(g_prev)
        theta, snapshot = new_theta, new_snapshot
        if done:
            break
    trace.snapshot = snapshot
    return IrsPhase(theta), trace


# Armijo sufficient-increase slope and backtracking cap of the manifold baseline.
_ARMIJO_SLOPE = 1e-4
_MAX_HALVINGS = 50


def solve_irs_manifold(theta0: IrsPhase, p: Precoder, ch: ChannelSet,
                       cfg: SceneConfig, inner_max: int = 200
                       ) -> tuple[IrsPhase, InnerTrace]:
    """Riemannian gradient ascent on the torus with Armijo backtracking.

    Baseline solver: tangent projection of the conjugate gradient, an
    unguarded renormalization (rgrad is tangent, so |theta_i + s rgrad_i|
    >= 1), initial step 1/||grad||, contraction 0.5, and the minorization
    solver's stop.  Accepted steps only, so the trace is monotone.  The
    surrogate factors are built once; each candidate's quartic factors
    score it and, once it is accepted, give the next gradient.
    """
    if inner_max < 1:
        raise ConfigError(f"inner_max must be >= 1, got {inner_max}")
    factors = SurrogateFactors(p, ch, cfg)
    trace = InnerTrace()
    theta = theta0.theta.copy()
    quartic = factors.quartic(theta)
    snapshot = factors.value(theta, quartic)
    trace.objectives.append(snapshot[0])
    for _ in range(inner_max):
        grad = factors.gradient(theta, *quartic)
        rgrad = grad - np.real(grad * theta.conj()) * theta
        norm2 = float(np.real(np.vdot(rgrad, rgrad)))
        if norm2 == 0.0:
            break
        step = 1.0 / math.sqrt(norm2)
        accepted = False
        for _ in range(_MAX_HALVINGS):
            cand = theta + step * rgrad
            cand /= np.abs(cand)
            cand_quartic = factors.quartic(cand)
            cand_snapshot = factors.value(cand, cand_quartic)
            if cand_snapshot[0] >= snapshot[0] + _ARMIJO_SLOPE * step * norm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            trace.line_search_failed = True
            break
        g_prev = snapshot[0]
        theta, quartic, snapshot = cand, cand_quartic, cand_snapshot
        trace.objectives.append(snapshot[0])
        if abs(snapshot[0] - g_prev) <= _INNER_TOL * abs(g_prev):
            break
    trace.snapshot = snapshot
    return IrsPhase(theta), trace
