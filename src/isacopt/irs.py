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

The update is a monotone fixed-point map, and it converges linearly, at
L = 16 often slowly (125 maps per solve on the scaling config, 24 of 62
solves at the cap of 200).  ``solve_irs_minorization`` therefore runs
it in guarded SQUAREM cycles (``squarem.squarem_ascent``, shared with the
unit-diagonal ascent of ``ratio``): two maps, an extrapolation along
them projected back onto the torus, one map there, kept only where it ends
above the two maps.  A cycle needs three maps, so ``inner_max`` 1 and 2,
the paper's setting and every config but ``scaling``, run the plain update
bit for bit.

Every rule of both phase solvers is relative or an exact-zero test, so
noise powers scaled by 2^k give bit-identical phases.  Where nu_i = 0 any
phase maximizes the linear minorizer, so the update needs no rule there.

No L x L matrix is formed on the solver path.  R = a a^T is rank one, so
X = b b^T with b = theta o a and every surrogate piece is low rank: the
quartic matrices are U1 = c p q^T and U2 = conj(U1), and the communication
form is U3 = cc Psi Psi^H with K_u * rank(P) columns in Psi.  The anchor's
displacement form vanishes off span M, M = [p, q, Psi], so rho comes from
the (2m) x (2m) eigenproblem there (m <= K_u * K + 2), which the Cholesky
factor of M^H M takes to constant coefficients by one congruence.  One
inner iteration costs O(L N K + L m + m^3).

``SurrogateFactors`` is built once per precoder, from its nonzero columns
P_nz and the run's channel constants (``objective.ChannelConstants``, the
phase stage's one channel input), so it forms only what depends on P.
Both phase solvers pass one value between their steps, a
``objective.ScoredPoint``: a solve's one input is the same kind of point
as its output (``InnerTrace.end``, at the returned phases), from which the
next solve starts.  Its products Y = W P_nz give the linearization:
Y[0] = P^T t and t give the quartic factors p = a* o conj(GP) P^T t and
q = a* o conj(G) t, which the gradient writes into rows 0 and 1 of M^T
once per map, and U3 theta + mu* = cc Psi vec(Y[1:]), so the gradient is
one product over M^T, the block the anchor's Gram matrix comes from, and
U3 and mu = diag(U4) are never formed.  A slack outer iteration's phase
step takes one 7 x 7 ``cholesky`` and one 14 x 14 ``eigvalsh`` at the
paper size (K = 5).

The dense quartic constructions (``quartic_kernels``,
``build_quartic_surrogate``, ``linear_surrogate_vectors``) run on no
solver path and form R = a a^T from the steering vector themselves; they
stay here, under these names, because perfbench's tracer wraps them in
this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MonotonicityError
from .objective import (ChannelConstants, IrsPhase, Precoder, ScoredPoint,
                        gamma_n, hermitize, quartic_coefficient,
                        quartic_kernels)
# The solvers score iterates with EffectiveChannels.score; the name stays a
# module attribute because perfbench's tracer wraps it here by name.
from .objective import weighted_snr  # noqa: F401
# The ratio study's U3, kept for perfbench, which wraps and calls it here.
from .ratio import build_quadratic_terms  # noqa: F401
from .scene import ChannelSet, SceneConfig
from .squarem import squarem_ascent


@dataclass
class InnerTrace:
    """Objective bookkeeping of one inner solve.

    ``objectives`` is the weighted SNR at the start and after each accepted
    update; ``end`` is the ``ScoredPoint`` at the returned phases, so
    ``end.g == objectives[-1]``.
    """

    end: ScoredPoint
    objectives: list[float] = field(default_factory=list)
    line_search_failed: bool = False


class SurrogateFactors:
    """Objective and surrogate pieces for one precoder, in low-rank factors.

    GP = G P_nz over the nonzero columns of P (``Precoder.nonzero_columns``),
    which give the same P P^H.  With b = theta o a, t = G^T b and
    Y = W P_nz: V b = conj(GP) Y[0], W b = conj(G) t, and U3 = cc Psi Psi^H.
    ``rows`` = M^T, M = [p, q, Psi], is read by the anchor and the gradient:
    rows 0 and 1 are p and q, written by ``gradient`` once per map, and row
    2 + k K' + j is column (k, j) of Psi, conj(h_k o gp_j), written once.
    cc weights the form, not Psi, so noise scaled by 2^k scales it exactly.
    conj(G), conj(H), conj(a), c and cc come from the run's ``consts``.
    """

    def __init__(self, p: Precoder, consts: ChannelConstants):
        self.consts = consts
        self.p_nz = p_nz = p.nonzero_columns()
        self.c, self.cc = consts.c, consts.cc
        self.gp_conj = gp_conj = (consts.g @ p_nz).conj()
        (k, l), kp = consts.h_conj.shape, p_nz.shape[1]
        m = 2 + k * kp
        self.rows = rows = np.empty((m, l), dtype=complex)  # M^T
        np.multiply(consts.h_conj[:, None], gp_conj.T,
                    out=rows[2:].reshape(k, kp, l))
        self.gram = gram = np.empty((m, m), dtype=complex)  # M^T conj(M)
        np.matmul(rows[2:], rows[2:].conj().T, out=gram[2:, 2:])
        self._cholesky = l >= m     # M^T conj(M) is singular where L < m

    def at(self, theta: IrsPhase) -> ScoredPoint:
        """The scored point of the precoder at theta."""
        return self.consts.channels(theta).score(self.p_nz)

    def gradient(self, point: ScoredPoint) -> np.ndarray:
        """Wirtinger gradient at the point's phases, from its products Y.

        Writes p = a* o V b and q = a* o W b (U1 = c p q^T) into rows 0 and
        1 of M^T, then with q_v = b^H V b = ||P^T t||^2 and q_w = b^H W b =
        ||t||^2 takes [c q_w, c q_v, cc vec(CP)] M^T, as U3 theta + mu* =
        cc Psi vec(CP).
        """
        y, channels = point.y, point.channels
        pt, a_conj, rows = y[0], self.consts.a_conj, self.rows
        np.multiply(a_conj, self.gp_conj @ pt, out=rows[0])
        np.multiply(a_conj, self.consts.g_conj @ channels.t, out=rows[1])
        q_v = float(np.vdot(pt, pt).real)
        return np.concatenate(((self.c * channels.q_w, self.c * q_v),
                               self.cc * y[1:].ravel())) @ rows

    def linearize(self, point: ScoredPoint) -> np.ndarray:
        """nu = grad g(theta) + rho theta at the point's phases, with the
        exact anchor rho: the gradient writes p and q, which the anchor
        then reads."""
        return self.gradient(point) + self.anchor() * point.theta

    def anchor(self) -> float:
        """Exact ascent anchor for the p and q in rows 0 and 1 of M^T: from
        the Cholesky factor of M^T conj(M), or R^T from M's QR where that is
        singular by its shape (L < m) or not positive definite
        (``ascent_anchor``)."""
        rows, factor_conj = self.rows, None
        if self._cholesky:
            np.matmul(rows, rows[:2].conj().T, out=self.gram[:, :2])
            try:
                factor_conj = np.linalg.cholesky(self.gram)
            except np.linalg.LinAlgError:
                pass
        if factor_conj is None:
            factor_conj = np.linalg.qr(rows.T, mode="r").T
        return ascent_anchor(factor_conj, self.c, self.cc)

    def dip_allowance(self) -> float:
        """How far one computed objective g = c q_v q_w + cc ||C P||_F^2
        (``EffectiveChannels.score``) may lie below another at a point
        where the exact g is no lower, by rounding alone: 24 gamma_n g_abs,
        n = L + N + 2 K K' + 16, twice the error of one computed g.

        g_abs is g with every channel, precoder and phase entry taken in
        absolute value, the same at every theta (|theta_i| = 1):
        t_abs = |G|^T |a| and C_abs = |F| + |H| |G| (``ChannelConstants``),
        Y_abs = [t_abs^T; C_abs] |P_nz| and g_abs = c ||Y_abs[0]||^2
        ||t_abs||^2 + cc ||Y_abs[1:]||_F^2.  theta o a, t (L terms), C (L
        terms and F) and
        Y = W P_nz (N terms) are complex products, each within
        sqrt(2) gamma of its absolute value (Higham, *Accuracy and Stability
        of Numerical Algorithms*, 2nd ed., Section 3.6), so Y is within
        e = sqrt(2) gamma_{L+N+8} of Y_abs entrywise; a sum of squares of
        2 K K' parts then errs by at most (3 e + gamma_{2KK'} (1 + e)^2)
        <= 5 gamma_n of its absolute value, the product q_v q_w by
        11 gamma_n, and the last products and sum add a few roundings, so
        one computed g is within 12 gamma_n g_abs of its value.  It is
        3.1e-13 g_abs at the paper size with K' = 5, 0.9 to 1.6e-10 of g
        at random phases and precoders there, and relative, so noise powers
        scaled by 2^k scale it exactly.
        """
        consts, p_abs = self.consts, np.abs(self.p_nz)
        t_abs, c_abs = consts.abs_channels
        y_t, y_c = t_abs @ p_abs, c_abs @ p_abs
        g_max = (self.c * float(y_t @ y_t) * float(t_abs @ t_abs)
                 + self.cc * float(np.sum(y_c * y_c)))
        (k, l), n = consts.h.shape, consts.g.shape[1]
        return 24.0 * gamma_n(l + n + 2 * k * p_abs.shape[1] + 16) * g_max


def build_quartic_surrogate(theta_t: IrsPhase, p: Precoder, ch: ChannelSet,
                            cfg: SceneConfig) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic surrogate matrices (U1, U2) of the quartic term at theta_t.

    Dense quartic construction, kept for the tracer: the solver uses the
    rank-one factors of ``SurrogateFactors`` instead.  U1 = c (R^H o Y^T)
    and U2 = c (R o Z^T) with c = beta |alpha|^2 / sigma_R^2 and (Y, Z) the
    kernels at X_t = Theta_t R Theta_t of V = (G P P^H G^H)^T and
    W = G* G^T.  The surrogate theta^H U1 theta* + theta^T U2 theta
    minorizes the quartic term after restoring the dropped constant
    c * vec(X_t)^H Q vec(X_t).
    """
    gp, th = ch.g @ p.p, theta_t.theta
    r = np.outer(ch.steer, ch.steer)
    y, z = quartic_kernels(th[:, None] * r * th[None, :],
                           hermitize((gp @ gp.conj().T).T),
                           hermitize(ch.g.conj() @ ch.g.T))
    c = quartic_coefficient(cfg)
    return c * (r.conj() * y.T), c * (r * z.T)


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
    arg is ``np.angle``'s arctan2 of the parts, called directly.
    """
    return IrsPhase.unit(np.exp(1j * np.arctan2(nu.imag, nu.real)))


def ascent_anchor(factor_conj: np.ndarray, c: float, cc: float) -> float:
    """Smallest rho >= 0 making the surrogate's real quadratic form convex.

    With M = [p, q, Psi] (L x m) the displacement form 2c Re{(d^H p)(d^H q)}
    + cc ||Psi^H d||^2 sees d only in span M.  In orthonormal coordinates x
    there, w = M^H d = F x for any F F^H = M^H M, and the form is constant
    in w: Phi = 2c Re(w_1 w_2) + cc ||w_{3:}||^2.  So rho =
    max(0, -lambda_min(T^T Phi T)), T the real image of F: one product and
    one ``eigvalsh`` from ``factor_conj`` = conj(F).  rho = 0 for c = 0.
    """
    if c == 0.0:
        return 0.0
    m = factor_conj.shape[0]
    t = np.empty((2 * m, factor_conj.shape[1]), dtype=complex)
    t[:m] = factor_conj
    np.multiply(factor_conj, 1j, out=t[m:])
    t = t.view(float)   # rows Re w, Im w; columns Re x_1, Im x_1, Re x_2, ...
    phi_t = cc * t      # Phi T: Phi swaps w_1 and w_2, times c and -c
    np.multiply(t[1::-1], c, out=phi_t[:2])
    np.multiply(t[m + 1:m - 1:-1], -c, out=phi_t[m:m + 2])
    return max(0.0, -float(np.linalg.eigvalsh(t.T @ phi_t)[0])) * (1 + 1e-9)


# Relative objective gain at which both phase solvers stop.
_INNER_TOL = 1e-6


def solve_irs_minorization(p: Precoder, start: ScoredPoint,
                           inner_max: int = 200
                           ) -> tuple[IrsPhase, InnerTrace]:
    """Iterate the closed-form double-minorization update to convergence.

    Each map linearizes the surrogate at the current phases and applies
    the phase-alignment update; the scored point of the new phases gives
    the quartic factors that the next linearization expands around.  Up
    to ``inner_max`` maps run as guarded SQUAREM cycles of three
    (``squarem.squarem_ascent``: two maps, one map at the
    extrapolated phases exp(j arg(theta - 2 alpha r + alpha^2 v)), kept
    only where it beats the two), with plain maps where fewer than three
    are left, so ``inner_max`` 1 and 2 run the plain update alone.  The
    solve stops once a map between kept phases gains at most
    ``_INNER_TOL`` relative, as the plain update does (``tests/reference.py``
    keeps that loop as an oracle).  The recorded objective sequence
    is the true weighted SNR of the kept phases and must be nondecreasing
    (each map is guaranteed by the anchor, an extrapolation by the guard);
    a map whose computed objective dips beyond what rounding explains,
    ``SurrogateFactors.dip_allowance`` (formed only where it dips at all),
    raises MonotonicityError.  ``start`` and the trace's ``end`` are p's
    ``ScoredPoint`` at the starting and at the returned phases.
    """
    if inner_max < 1:
        raise ConfigError(f"inner_max must be >= 1, got {inner_max}")
    factors = SurrogateFactors(p, start.channels.consts)

    def step(prev):
        new = factors.at(irs_phase_update(factors.linearize(prev)))
        if new.g < prev.g and new.g < prev.g - factors.dip_allowance():
            raise MonotonicityError(
                f"objective decreased from {prev.g:.12g} to {new.g:.12g} "
                f"in the inner phase update")
        return new

    end, values = squarem_ascent(
        start, step, lambda x, near: factors.at(irs_phase_update(x)),
        lambda prev, new: abs(new.g - prev.g) <= _INNER_TOL * abs(prev.g),
        inner_max)
    return end.channels.theta, InnerTrace(objectives=values, end=end)


# Armijo sufficient-increase slope and backtracking cap of the manifold baseline.
_ARMIJO_SLOPE = 1e-4
_MAX_HALVINGS = 50


def solve_irs_manifold(p: Precoder, start: ScoredPoint, inner_max: int = 200
                       ) -> tuple[IrsPhase, InnerTrace]:
    """Riemannian gradient ascent on the torus with Armijo backtracking.

    Baseline solver: tangent projection j theta Im(theta* grad) of the
    conjugate gradient, an unguarded renormalization (rgrad is tangent, so
    |theta_i + s rgrad_i| >= 1; in this form the rounding of rgrad is
    relative to rgrad itself, not to grad), initial step 1/||grad||,
    contraction 0.5, and the minorization solver's stop.  Accepted steps
    only, so the trace is monotone.  The surrogate factors are built once;
    each candidate's scored point scores it and, once it is accepted,
    gives the next gradient.  ``start`` and the trace's ``end`` are as
    for ``solve_irs_minorization``.
    """
    if inner_max < 1:
        raise ConfigError(f"inner_max must be >= 1, got {inner_max}")
    factors = SurrogateFactors(p, start.channels.consts)
    trace = InnerTrace(end=start, objectives=[start.g])
    for _ in range(inner_max):
        theta, g_prev = trace.end.theta, trace.end.g
        grad = factors.gradient(trace.end)
        rgrad = 1j * theta * np.imag(grad * theta.conj())
        norm2 = float(np.real(np.vdot(rgrad, rgrad)))
        if norm2 == 0.0:
            break
        step = 1.0 / math.sqrt(norm2)
        accepted = False
        for _ in range(_MAX_HALVINGS):
            cand = theta + step * rgrad
            cand /= np.abs(cand)
            cand_at = factors.at(IrsPhase.unit(cand))
            if cand_at.g >= g_prev + _ARMIJO_SLOPE * step * norm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            trace.line_search_failed = True
            break
        trace.end = cand_at
        trace.objectives.append(cand_at.g)
        if abs(cand_at.g - g_prev) <= _INNER_TOL * abs(g_prev):
            break
    return trace.end.channels.theta, trace
