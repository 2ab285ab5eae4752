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
radar-weighted scenes does) decrease the objective.  The default solver
therefore composes the same building blocks through two value-preserving
repairs that restore the ascent guarantee: the quartic cross matrices are
symmetrized (quadratic forms only see the symmetric part), and a
torus-constant anchor rho * theta^H theta is added and subtracted, with rho
the smallest value making the loaded form convex.  The linear surrogate
vector is then the Wirtinger gradient plus rho * theta, and the update is

    theta <- exp(j arg(grad g(theta) + rho * theta)).

rho is zero whenever the surrogate is already convex, in which case the
update coincides with the plain one.  ``safeguard=False`` runs the plain
composition and raises if it dips.

No L x L matrix is formed on the solver path.  R = a a^T is rank one, so
X = b b^T with b = theta o a and every surrogate piece is low rank: the
quartic matrices are U1 = c p q^T and U2 = conj(U1), the communication form
is U3 = Psi Psi^H with K_u * rank(P) columns in Psi, and mu = diag(U4) is a
row sum.  The anchor's displacement form vanishes off span{p, q, Psi}, so
rho comes from the same eigenproblem compressed onto an orthonormal basis
of that span, (2m) x (2m) with m <= K_u * K + 2 instead of 2L x 2L.  One
inner iteration costs O(L (N + m^2)).

The dense constructions (``build_quartic_surrogate``,
``quartic_surrogate_constant``, ``linear_surrogate_vectors``,
``dense_linearization``) are reference code for the tests.
``build_quadratic_terms`` returns the dense U3, which the
approximation-ratio study needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MonotonicityError
from .objective import (IrsPhase, Precoder, comm_coefficient, hermitize,
                        quartic_coefficient, quartic_kernels, weighted_snr)
from .scene import ChannelSet, SceneConfig


@dataclass
class InnerTrace:
    """Objective bookkeeping of one inner solve."""

    objectives: list[float] = field(default_factory=list)
    surrogate_gaps: list[float] = field(default_factory=list)
    line_search_failed: bool = False


class SurrogateFactors:
    """Low-rank factors of the surrogate pieces for one precoder.

    GP = G P over the nonzero columns of P (dropping zero columns leaves
    P P^H unchanged), so V b = conj(GP) (GP^T b) and W b = conj(G) (G^T b).
    The communication form is U3 = Psi Psi^H, with column (k, j) of Psi
    equal to sqrt(cc) conj(h_k o gp_j), and mu = diag(U4) =
    cc sum_j gp_j o ((FP)^H H)_j.
    """

    def __init__(self, p: Precoder, ch: ChannelSet, cfg: SceneConfig):
        p_nz = p.p[:, np.any(p.p != 0, axis=0)]
        cc = comm_coefficient(cfg)
        self.c = quartic_coefficient(cfg)
        self.steer = ch.steer
        self.g = ch.g
        self.gp = ch.g @ p_nz
        self.psi = math.sqrt(cc) * (ch.h.T[:, :, None] * self.gp[:, None, :]
                                    ).reshape(len(ch.steer), -1).conj()
        self.mu = cc * np.sum(self.gp * ((ch.f @ p_nz).conj().T @ ch.h).T,
                              axis=1)

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

    def linearize(self, theta: np.ndarray, safeguard: bool = True
                  ) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
        """(nu, rho, p, q) at theta; the plain-slot vector is eta = conj(nu).

        Safeguarded, nu = grad g(theta) + rho theta with the exact anchor
        rho.  Plain, the unsymmetrized U1 = c p q^T gives
        nu = 2 c q_v q + U3 theta + mu* and rho = 0.
        """
        pv, qv, q_v, q_w = self.quartic(theta)
        if not safeguard:
            return 2.0 * self.c * q_v * qv + self.comm(theta), 0.0, pv, qv
        rho = self.anchor(pv, qv)
        nu = self.gradient(theta, pv, qv, q_v, q_w) + rho * theta
        return nu, rho, pv, qv

    def anchor(self, pv: np.ndarray, qv: np.ndarray) -> float:
        """Exact ascent anchor, from the eigenproblem on span{p, q, Psi}.

        With [p, q, Psi] = Q R, R holds the coordinates Q^H [p, q, Psi];
        the displacement form is zero on the orthogonal complement, so
        the compressed form has the same smallest negative eigenvalue.
        """
        _, r = np.linalg.qr(np.column_stack([pv, qv, self.psi]))
        pt, qt, psit = r[:, 0], r[:, 1], r[:, 2:]
        u1_sym = 0.5 * self.c * (np.outer(pt, qt) + np.outer(qt, pt))
        return ascent_anchor(u1_sym, psit @ psit.conj().T)

    def surrogate_value(self, theta: np.ndarray, pv: np.ndarray,
                        qv: np.ndarray, rho: float) -> float:
        """Quadratic surrogate with anchor rho, expanded where (p, q) were
        taken, at theta."""
        quartic = 2.0 * self.c * np.real(np.vdot(theta, pv)
                                         * np.vdot(theta, qv))
        coords = self.psi.conj().T @ theta
        quad = np.vdot(coords, coords).real + rho * np.vdot(theta, theta).real
        lin = 2.0 * np.real(theta @ self.mu)
        return float(quartic + quad + lin)


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
    x_t = (th[:, None] * ch.r_mat) * th[None, :]
    y, z = quartic_kernels(x_t, v, w)
    return x_t, y, z


def build_quartic_surrogate(theta_t: IrsPhase, p: Precoder, ch: ChannelSet,
                            cfg: SceneConfig) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic surrogate matrices (U1, U2) of the quartic term at theta_t.

    Reference code: the solver uses the rank-one factors of
    ``SurrogateFactors`` instead.  U1 = c (R^H o Y^T) and U2 = c (R o Z^T)
    with c = beta |alpha|^2 / sigma_R^2 and (Y, Z) the kernels at
    X_t = Theta_t R Theta_t.  The surrogate theta^H U1 theta* +
    theta^T U2 theta minorizes the quartic term after restoring the dropped
    constant c * vec(X_t)^H Q vec(X_t).
    """
    _, y, z = _lifted_kernels(theta_t, p, ch)
    c = quartic_coefficient(cfg)
    r = ch.r_mat
    u1 = c * (r.conj() * y.T)
    u2 = c * (r * z.T)
    return u1, u2


def quartic_surrogate_constant(theta_t: IrsPhase, p: Precoder, ch: ChannelSet,
                               cfg: SceneConfig) -> float:
    """Dropped constant c * vec(X_t)^H Q vec(X_t); equals g4(theta_t).

    Reference code for the tangency tests.
    """
    x_t, y, _ = _lifted_kernels(theta_t, p, ch)
    return quartic_coefficient(cfg) * float(np.real(np.vdot(x_t, y)))


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

    Reference code: with the rank-one U1 the solver forms nu from the
    gradient and takes eta = conj(nu).
    """
    th = theta_t.theta
    nu = 2.0 * u1.T @ th.conj() + u3 @ th + mu.conj()
    eta = 2.0 * u2.T @ th + u3.T @ th.conj() + mu
    return nu, eta


def dense_linearization(theta_t: IrsPhase, p: Precoder, ch: ChannelSet,
                        cfg: SceneConfig, safeguard: bool = True
                        ) -> tuple[np.ndarray, np.ndarray, float]:
    """(nu, eta, rho) at theta_t from the dense L x L surrogate pieces.

    Reference code for ``SurrogateFactors.linearize``: the quartic
    surrogate, symmetrized and anchored by ``ascent_anchor`` on the full
    2L x 2L form when ``safeguard`` is set, then linearized.
    """
    u1, u2 = build_quartic_surrogate(theta_t, p, ch, cfg)
    u3, mu = build_quadratic_terms(p, ch, cfg)
    rho = 0.0
    if safeguard:
        u1 = 0.5 * (u1 + u1.T)
        u2 = 0.5 * (u2 + u2.T)
        rho = ascent_anchor(u1, u3)
        u3 = u3 + rho * np.eye(len(theta_t))
    nu, eta = linear_surrogate_vectors(theta_t, u1, u2, u3, mu)
    return nu, eta, rho


def irs_phase_update(nu: np.ndarray, eta: np.ndarray,
                     theta_prev: np.ndarray | None = None) -> IrsPhase:
    """Torus maximizer of Re{theta^H nu + theta^T eta}: exp(j arg(nu + eta*)).

    Coordinates where nu + eta* vanishes have no preferred phase; they keep
    the previous phase when one is supplied (determinism), else 1.
    """
    s = nu + eta.conj()
    degenerate = np.abs(s) < 1e-14
    theta = np.exp(1j * np.angle(s))
    if np.any(degenerate):
        keep = theta_prev if theta_prev is not None else np.ones_like(s)
        theta = np.where(degenerate, keep, theta)
    return IrsPhase(theta)


def ascent_anchor(u1_sym: np.ndarray, u3: np.ndarray) -> float:
    """Smallest rho >= 0 making the surrogate's real quadratic form convex.

    The displacement form is 2 Re{d^H U1s d*} + d^H U3 d; its real
    representation is assembled blockwise and rho = max(0, -lambda_min).
    """
    x1, y1 = u1_sym.real, u1_sym.imag
    e, o = u3.real, u3.imag
    top = np.hstack([2.0 * x1 + e, 2.0 * y1 - o])
    bottom = np.hstack([(2.0 * y1 - o).T, -2.0 * x1 + e])
    h = np.vstack([top, bottom])
    lam_min = float(np.linalg.eigvalsh(0.5 * (h + h.T))[0])
    return max(0.0, -lam_min) * (1.0 + 1e-9)


def solve_irs_minorization(theta0: IrsPhase, p: Precoder, ch: ChannelSet,
                           cfg: SceneConfig, inner_tol: float = 1e-6,
                           inner_max: int = 200, safeguard: bool = True
                           ) -> tuple[IrsPhase, InnerTrace]:
    """Iterate the closed-form double-minorization update to convergence.

    Each iteration takes the surrogate factors at the current phases,
    linearizes, and applies the phase-alignment update; it stops when the
    relative objective gain drops below ``inner_tol`` or after
    ``inner_max`` iterations.  The recorded objective sequence is the true
    weighted SNR and must be nondecreasing (guaranteed with the default
    safeguard); a dip beyond 1e-9 relative slack raises.
    """
    if inner_max < 1:
        raise ConfigError(f"inner_max must be >= 1, got {inner_max}")
    factors = SurrogateFactors(p, ch, cfg)
    trace = InnerTrace()
    theta = theta0
    g_prev = weighted_snr(p, theta, ch, cfg)
    trace.objectives.append(g_prev)
    for _ in range(inner_max):
        th = theta.theta
        nu, rho, pv, qv = factors.linearize(th, safeguard)
        new_theta = irs_phase_update(nu, nu.conj(), th)

        g_new = weighted_snr(p, new_theta, ch, cfg)
        # gap of the fully restored surrogate chain at the new point
        step = new_theta.theta - th
        lifted = factors.surrogate_value(th, pv, qv, rho) \
            + 2.0 * float(np.real(np.vdot(step, nu)))
        trace.surrogate_gaps.append(
            factors.surrogate_value(new_theta.theta, pv, qv, rho) - lifted)

        if g_new < g_prev - 1e-9 * abs(g_prev):
            raise MonotonicityError(
                f"objective decreased from {g_prev:.12g} to {g_new:.12g} "
                f"in the inner phase update"
                + ("" if safeguard else " (safeguard disabled)"))
        trace.objectives.append(g_new)
        done = abs(g_new - g_prev) <= inner_tol * max(abs(g_prev), 1e-300)
        theta, g_prev = new_theta, g_new
        if done:
            break
    return theta, trace


def wirtinger_gradient(theta: IrsPhase, p: Precoder, ch: ChannelSet,
                       cfg: SceneConfig) -> np.ndarray:
    """Conjugate-coordinate gradient of the true objective at theta.

    For real objective g, dg = 2 Re{grad^H d theta}.  The communication
    terms contribute mu* + U3 theta; the quartic term is the product of the
    two PSD forms q_v q_w in b = theta o a, so the product rule gives
    a* o (c (q_w V b + q_v W b)) = c (q_w p + q_v q).
    """
    factors = SurrogateFactors(p, ch, cfg)
    return factors.gradient(theta.theta, *factors.quartic(theta.theta))


def _tangent_project(grad: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Project onto the tangent space of the product-of-circles manifold."""
    return grad - np.real(grad * theta.conj()) * theta


def _retract(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Elementwise renormalization onto the torus."""
    mag = np.abs(v)
    safe = mag > 1e-300
    out = np.where(safe, v / np.where(safe, mag, 1.0), fallback)
    return out


def solve_irs_manifold(theta0: IrsPhase, p: Precoder, ch: ChannelSet,
                       cfg: SceneConfig, inner_tol: float = 1e-6,
                       inner_max: int = 200, armijo_slope: float = 1e-4,
                       max_halvings: int = 50) -> tuple[IrsPhase, InnerTrace]:
    """Riemannian gradient ascent on the torus with Armijo backtracking.

    Baseline solver: tangent projection of the conjugate gradient,
    elementwise-renormalization retraction, initial step 1/||grad||,
    contraction 0.5.  Accepted steps only, so the trace is monotone.
    """
    if inner_max < 1:
        raise ConfigError(f"inner_max must be >= 1, got {inner_max}")
    trace = InnerTrace()
    theta = theta0.theta.copy()
    g = weighted_snr(p, IrsPhase(theta), ch, cfg)
    trace.objectives.append(g)
    for _ in range(inner_max):
        grad = wirtinger_gradient(IrsPhase(theta), p, ch, cfg)
        rgrad = _tangent_project(grad, theta)
        norm2 = float(np.real(np.vdot(rgrad, rgrad)))
        if norm2 <= 1e-300:
            break
        step = 1.0 / math.sqrt(norm2)
        accepted = False
        for _ in range(max_halvings):
            cand = _retract(theta + step * rgrad, theta)
            g_cand = weighted_snr(p, IrsPhase(cand), ch, cfg)
            if g_cand >= g + armijo_slope * step * norm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            trace.line_search_failed = True
            break
        gain = g_cand - g
        theta, g = cand, g_cand
        trace.objectives.append(g)
        if gain <= inner_tol * max(abs(g), 1e-300):
            break
    return IrsPhase(theta), trace
