"""Precoder sub-problem: linear objective over an intersection of convex sets.

The relaxed covariance S = sum_k p_k p_k^H is optimized directly (the
objective and both constraints depend on the precoder only through S).
Without the beampattern ball the optimum over C = {S >= 0, tr(S) = P_T} is
P_T u u^H with u the top eigenvector of the objective matrix, so whenever
that matrix lies inside the ball ||S - R_D||_F^2 <= gamma_BP it is the exact
optimum and its factor sqrt(P_T) u is an exact precoder: no iteration.
When the ball binds, the KKT conditions put the optimum at
S(t) = Pi_C(R_D + t Omega) for the one scale t at which S(t) meets the
ball, so the solve is a bisection on t, one eigendecomposition per step,
and ``relaxed_dual_bound`` certifies it.  The precoder is then recovered
deterministically along the rank-K path S_K(t) = Pi_{C_K}(R_D + t Omega)
(``factor_precoder``).  The Euclidean projection onto the feasible set,
``dykstra_project``, is the same search along M - R_D.

The approximation-ratio study measures Gaussian randomization on the
unit-modulus problem max x^H A x, against its unit-diagonal relaxation:
coordinate ascent for the relaxation and a dual certificate for the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError
from .objective import Precoder, hermitize
from .scene import SceneConfig, complex_normal, ula_steering

# Relative width of the bracket on t at which the KKT search stops.
_KKT_REL_WIDTH = 1e-13
# Doublings of t after which the KKT search gives up.
_KKT_MAX_DOUBLINGS = 200


@dataclass
class RelaxedCovariance:
    """Optimizer of the relaxed (covariance-level) precoder problem.

    ``factor``, when set, is an exact factor F with S = F F^H (one column
    per nonzero eigenvalue).  ``kkt_scale``, set when the beampattern ball
    binds, is the scale t of the KKT point the solve stopped at, for
    ``relaxed_dual_bound``.  ``in_ball_scale``, set whenever the KKT search
    ran, is the largest scale at which S(t) was tested inside the ball;
    ``factor_precoder`` starts its search there.
    """

    s: np.ndarray
    factor: np.ndarray | None = None
    kkt_scale: float | None = None
    in_ball_scale: float | None = None

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=complex)
        if self.s.ndim != 2 or self.s.shape[0] != self.s.shape[1]:
            raise ConfigError("relaxed covariance must be square")
        if self.factor is not None:
            self.factor = np.asarray(self.factor, dtype=complex)
            if self.factor.ndim != 2 or self.factor.shape[0] != self.s.shape[0]:
                raise ConfigError("factor must have one row per antenna")


@dataclass
class RandomizationReport:
    """Outcome of one Gaussian-randomization batch."""

    n_samples: int
    best_objective: float
    sdp_objective: float
    ratio: float

    def __post_init__(self):
        if self.ratio > 1.0 + 1e-9:
            raise ConfigError(
                f"approximation ratio {self.ratio} exceeds 1: the reference "
                f"objective is not an upper bound")


def project_psd(m: np.ndarray, herm_tol: float = 1e-10) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (eigenvalue clamp)."""
    asym = np.linalg.norm(m - m.conj().T)
    if asym > herm_tol * max(1.0, np.linalg.norm(m)):
        raise ConfigError(f"input is not Hermitian (asymmetry {asym:.3e})")
    w, u = np.linalg.eigh(hermitize(m))
    w = np.maximum(w, 0.0)
    return hermitize((u * w) @ u.conj().T)


def project_trace(m: np.ndarray, target: float) -> np.ndarray:
    """Frobenius projection onto the hyperplane tr(M) = target.

    Reference code, used only by tests (``project_spectrahedron`` fuses it
    with the cone).
    """
    n = m.shape[0]
    return m + ((target - np.trace(m)) / n) * np.eye(n)


def project_ball(m: np.ndarray, center: np.ndarray, radius2: float) -> np.ndarray:
    """Projection onto the Frobenius ball ||M - center||_F^2 <= radius2."""
    if radius2 <= 0:
        raise ConfigError(f"ball radius must be positive, got radius2={radius2}")
    diff = m - center
    dist2 = float(np.sum(np.abs(diff) ** 2))
    if dist2 <= radius2:
        return m
    return center + math.sqrt(radius2 / dist2) * diff


def _simplex_scaled(w: np.ndarray, target: float) -> np.ndarray:
    """Project a real vector onto {v >= 0, sum v = target}.

    The projection is invariant to a common shift of ``w``; shifting the
    largest entry to 0 keeps the partial sums, and so the sum of the
    output, accurate when the entries are large against ``target``.
    """
    w = w - w.max()
    mu = np.sort(w)[::-1]
    cssv = np.cumsum(mu) - target
    ind = np.arange(1, w.size + 1)
    support = ind[mu - cssv / ind > 0][-1]
    tau = cssv[support - 1] / support
    return np.maximum(w - tau, 0.0)


def _projected_spectrum(m: np.ndarray, target: float, k: int | None = None):
    """(v, U) of the projection of M onto {S >= 0, tr S = target, rank S <= k}
    (no rank limit for k=None): the top k eigenpairs, their eigenvalues
    projected onto the scaled simplex (exact; Kyrillidis et al., ICML 2013)."""
    w, u = np.linalg.eigh(hermitize(m))
    if k is not None and k < w.size:
        w, u = w[-k:], u[:, -k:]
    return _simplex_scaled(w, target), u


def project_spectrahedron(m: np.ndarray, target: float) -> np.ndarray:
    """Exact Frobenius projection onto {S >= 0, tr S = target}.

    Eigendecompose and project the spectrum onto the scaled simplex.
    """
    v, u = _projected_spectrum(m, target)
    return hermitize((u * v) @ u.conj().T)


def _feasibility_residuals(cfg: SceneConfig, r_d: np.ndarray):
    """Scaled violations of the cone, trace and ball constraints, as three
    callables.  Reference code, used only by tests."""
    p_t, gamma = cfg.power_budget, cfg.beampattern_tol
    radius = math.sqrt(gamma)

    def res_psd(x):
        w = np.linalg.eigvalsh(hermitize(x))
        return max(0.0, -float(w[0])) / max(1.0, float(np.abs(w).max()))

    def res_trace(x):
        return abs(float(np.real(np.trace(x))) - p_t) / max(1.0, p_t)

    def res_ball(x):
        dist = float(np.linalg.norm(x - r_d))
        return max(0.0, dist - radius) / max(1.0, radius)

    return [res_psd, res_trace, res_ball]


def default_beampattern_target(cfg: SceneConfig) -> np.ndarray:
    """Desired transmit covariance: omni floor plus a beam toward the surface.

    R_D = (1 - mix) * (P_T/N) I + mix * P_T b b^H with b the normalized
    transmit steering vector toward the surface, then projected to be PSD
    with trace exactly P_T (feasible by construction).
    """
    n, p_t, mix = cfg.n_tx, cfg.power_budget, cfg.beampattern_mix
    b = ula_steering(cfg.radar_irs_azimuth, n, cfg.spacing_over_lambda)
    b = b / np.linalg.norm(b)
    r_d = (1.0 - mix) * (p_t / n) * np.eye(n) + mix * p_t * np.outer(b, b.conj())
    r_d = project_psd(hermitize(r_d))
    return r_d * (p_t / float(np.real(np.trace(r_d))))


def _check_target(r_d: np.ndarray, cfg: SceneConfig):
    """The target must itself be a feasible covariance: PSD with trace P_T."""
    w = np.linalg.eigvalsh(hermitize(r_d))
    if w[0] < -1e-8 * max(1.0, float(np.abs(w).max())):
        raise ConfigError("desired covariance R_D is not positive semidefinite")
    if abs(float(np.real(np.trace(r_d))) - cfg.power_budget) > 1e-8 * cfg.power_budget:
        raise ConfigError("desired covariance R_D does not meet the power budget")


def validate_beampattern_target(r_d: np.ndarray, cfg: SceneConfig):
    """The target must be feasible, and the ball must hold a K-column precoder
    (K = ``cfg.n_users``): S_K(0) = Pi_{C_K}(R_D), the nearest rank-K
    covariance to R_D and ``factor_precoder``'s last resort, must lie in it.
    """
    _check_target(r_d, cfg)
    # a covariance with no factor or in-ball scale is recovered as S_K(0)
    factor_precoder(RelaxedCovariance(r_d), cfg.n_users, r_d, cfg, r_d)


def _kkt_point(omega: np.ndarray, cfg: SceneConfig, r_d: np.ndarray,
               t: float) -> tuple[np.ndarray, float]:
    """S(t) = Pi_C(R_D + t Omega) and its squared distance from R_D."""
    s = project_spectrahedron(r_d + t * omega, cfg.power_budget)
    return s, float(np.sum(np.abs(s - r_d) ** 2))


def _bisect(point, gamma: float, t_lo: float, t_hi: float, lo, hi,
            floor: float = 0.0):
    """Bisect [t_lo, t_hi] to a width of 1e-13 * t_hi, or ``floor`` if wider,
    ``point(t)`` giving (x, squared distance from R_D), lo = x(t_lo) in the
    ball and hi = x(t_hi) outside; the final (t_lo, lo, t_hi, hi).  It also
    stops at adjacent floats, so t_hi stays positive when no t > 0 tests
    inside the ball (a gamma at the rounding level of the distance)."""
    while t_hi - t_lo > max(_KKT_REL_WIDTH * t_hi, floor):
        t_mid = 0.5 * (t_lo + t_hi)
        if not t_lo < t_mid < t_hi:
            break
        mid, dist2 = point(t_mid)
        if dist2 > gamma:
            t_hi, hi = t_mid, mid
        else:
            t_lo, lo = t_mid, mid
    return t_lo, lo, t_hi, hi


def dykstra_project(m: np.ndarray, cfg: SceneConfig, r_d: np.ndarray) -> np.ndarray:
    """Project onto {PSD} n {tr = P_T} n {Frobenius ball around R_D}.

    By KKT the projection of M is Pi_C(R_D + s (M - R_D)) with s = 1/(1 + mu),
    mu the ball's multiplier: s = 1 if that point lies in the ball, else the
    bisection of ``solve_relaxed`` finds s.  (The name, from the Dykstra
    iteration this replaced, is kept for the benchmark's tracer.)
    """
    _check_target(r_d, cfg)
    direction = hermitize(m) - r_d
    s, dist2 = _kkt_point(direction, cfg, r_d, 1.0)
    if dist2 <= cfg.beampattern_tol:
        return s
    _, _, _, s = _bisect(lambda t: _kkt_point(direction, cfg, r_d, t),
                         cfg.beampattern_tol, 0.0, 1.0, None, s)
    return project_ball(s, r_d, cfg.beampattern_tol)


def relaxed_dual_bound(omega: np.ndarray, cfg: SceneConfig, r_d: np.ndarray,
                       t: float) -> float:
    """Upper bound on max tr(S Omega) over the feasible covariance set.

    For any t > 0 the Lagrangian with multiplier 1/(2t) on the ball is,
    after completing the square, maximized over C = {S >= 0, tr S = P_T}
    by S(t) = Pi_C(R_D + t Omega); its value
    tr(Omega S(t)) + (gamma - ||S(t) - R_D||^2) / (2t) bounds the optimum
    by weak duality.  The bound adds an allowance for rounding: for the
    error e of the computed S(t), which lowers that value by up to about
    e^2 / (2t) plus e ||Omega||, and for the error of evaluating it.  The
    allowance is near 1e-14 relative for the scenes of the experiments,
    and dominates only when gamma nears the rounding level of the distance.
    """
    if not t > 0:
        raise ConfigError(f"dual scale must be positive, got t={t}")
    omega = hermitize(omega)
    s, dist2 = _kkt_point(omega, cfg, r_d, t)
    gamma, norm_omega = cfg.beampattern_tol, float(np.linalg.norm(omega))
    err = 4.0 * s.shape[0] * float(np.finfo(float).eps)
    e = err * (float(np.linalg.norm(r_d)) + t * norm_omega)   # error of S(t)
    rounding = (e * e / (2.0 * t) + err * (gamma + dist2) / (2.0 * t)
                + (e + err * cfg.power_budget) * norm_omega)
    return (float(np.real(np.vdot(omega, s)))
            + (gamma - dist2) / (2.0 * t) + rounding)


def solve_relaxed(omega: np.ndarray, cfg: SceneConfig,
                  r_d: np.ndarray) -> RelaxedCovariance:
    """Maximize tr(S Omega) over the feasible covariance set.

    If S = P_T u u^H (u the top eigenvector of Omega) lies inside the
    beampattern ball it is returned with its factor sqrt(P_T) u: it attains
    the bound P_T * lambda_max(Omega) of the ball-free problem, so it is
    exact.  Otherwise the ball binds, and by the KKT conditions the optimum
    is S(t) = Pi_C(R_D + t Omega) at the t where ||S(t) - R_D||^2 = gamma;
    that distance is nondecreasing in t, so t is found by doubling from
    sqrt(gamma) / ||Omega||_F until S(t) leaves the ball, then bisecting
    to a relative width of 1e-13.  The result is the ball projection of the
    outer end S(t_hi), a convex combination of two points of C, so it is
    feasible by construction; ``kkt_scale`` keeps t_hi for
    ``relaxed_dual_bound`` and ``in_ball_scale`` keeps t_lo.  A point S(t)
    inside the ball that attains P_T * lambda_max(Omega) to 1e-12 relative
    is returned as it is, with in-ball scale t (a repeated top eigenvalue
    can leave S(t) inside the ball for every t); SolverError if neither
    happens within a fixed number of doublings.
    """
    _check_target(r_d, cfg)
    omega = hermitize(omega)
    w, u = np.linalg.eigh(omega)
    top = u[:, -1:]
    s = cfg.power_budget * (top @ top.conj().T)
    if float(np.sum(np.abs(s - r_d) ** 2)) <= cfg.beampattern_tol:
        return RelaxedCovariance(s, factor=math.sqrt(cfg.power_budget) * top)
    gamma = cfg.beampattern_tol
    attainable = cfg.power_budget * float(w[-1])
    scale = float(np.linalg.norm(omega))
    t_lo, t_hi = 0.0, math.sqrt(gamma) / scale if scale > 0.0 else 1.0
    for _ in range(_KKT_MAX_DOUBLINGS):
        s_hi, dist2 = _kkt_point(omega, cfg, r_d, t_hi)
        if dist2 > gamma:
            break
        if (float(np.real(np.vdot(omega, s_hi)))
                >= attainable - 1e-12 * abs(attainable)):
            return RelaxedCovariance(s_hi, in_ball_scale=t_hi)
        t_lo, t_hi = t_hi, 2.0 * t_hi
    else:
        raise SolverError(
            f"KKT search: S(t) stayed inside the beampattern ball below its "
            f"optimum after {_KKT_MAX_DOUBLINGS} doublings of t")
    t_lo, _, t_hi, s_hi = _bisect(lambda t: _kkt_point(omega, cfg, r_d, t),
                                  gamma, t_lo, t_hi, None, s_hi)
    return RelaxedCovariance(project_ball(s_hi, r_d, gamma), kkt_scale=t_hi,
                             in_ball_scale=t_lo)


def relaxed_objective(s: RelaxedCovariance, omega: np.ndarray) -> float:
    """tr(S Omega), the relaxation bound on the precoder objective."""
    return float(np.real(np.vdot(omega, s.s)))


def precoder_objective(p: Precoder, omega: np.ndarray) -> float:
    """tr(P P^H Omega) for a concrete precoder."""
    return float(np.real(np.vdot(p.p, omega @ p.p)))


def factor_precoder(s: RelaxedCovariance, k: int, omega: np.ndarray,
                    cfg: SceneConfig, r_d: np.ndarray) -> Precoder:
    """Recover a K-column precoder from the relaxed covariance, with no draws.

    An exact factor of at most K columns (slack ball), zero-padded and
    rescaled to the power budget, is the precoder; its Gram matrix is S,
    which passed the ball test, up to rounding.  Otherwise the precoder is
    the factor of S_K(t) = Pi_{C_K}(R_D + t Omega), C_K = {S >= 0,
    tr S = P_T, rank S <= K}, at the largest t tested inside the ball: S's
    in-ball scale t_in, where S_K = S if rank S(t_in) <= K, else a bisection
    of [0, t_in] to a width of 1e-13 t_in that keeps its tested in-ball end.
    (S_K(t) minimizes ||S - R_D||^2 - 2t tr(Omega S) over C_K, so both terms
    are nondecreasing in t; returning only tested points guards against
    rounding.)  S_K(0) is the point ``validate_beampattern_target`` tests,
    and the answer when S has neither a factor nor an in-ball scale.
    """
    gamma = cfg.beampattern_tol
    if s.factor is not None and s.factor.shape[1] <= k:
        p = np.zeros((s.s.shape[0], k), dtype=complex)
        p[:, : s.factor.shape[1]] = s.factor
        return Precoder(
            p * math.sqrt(cfg.power_budget / float(np.sum(np.abs(p) ** 2))))

    def point(t):
        """F (N x k, zero-padded) with F F^H = S_K(t), and ||F F^H - R_D||^2."""
        v, u = _projected_spectrum(r_d + t * omega if t > 0.0 else r_d,
                                   cfg.power_budget, k)
        f = np.zeros((u.shape[0], k), dtype=complex)
        f[:, : v.size] = u * np.sqrt(v)
        return f, float(np.sum(np.abs(f @ f.conj().T - r_d) ** 2))

    t_in = s.in_ball_scale or 0.0
    p, dist2 = point(t_in)
    if dist2 > gamma and t_in > 0.0:
        lo, dist2 = point(0.0)
        if dist2 <= gamma:
            _, p, _, _ = _bisect(point, gamma, 0.0, t_in, lo, p,
                                 _KKT_REL_WIDTH * t_in)
    if dist2 > gamma:
        raise ConfigError(f"beampattern ball too tight: the nearest {k}-column "
                          f"precoder to R_D is at squared distance {dist2:.6g} "
                          f"> {gamma:.6g}")
    return Precoder(p)


def unit_diag_dual_bound(a: np.ndarray, r: np.ndarray) -> float:
    """Certified upper bound on max tr(A R) over {R >= 0, diag(R) = 1}.

    Any real y gives the bound sum(y) + L * max(0, -lambda_min(Diag(y) - A))
    by weak duality (tr R = L on the feasible set).  With y = Re diag(A R)
    taken from a near-optimal R the bound is tight: it equals tr(A R) when
    Diag(y) - A is PSD, and it is never below tr(A R).  The bound also
    covers rounding: it adds an allowance for the floating-point error of
    the sum and of the eigenvalue, and for that of a computed unit-modulus
    value x^H A x, so a ratio against it stays <= 1 in floating point too
    (the allowance is below 1e-12 relative for the matrices of the ratio
    study).
    """
    a = hermitize(a)
    n = a.shape[0]
    y = np.real(np.sum(a * r.T, axis=1))
    dual = np.diag(y) - a
    lam = float(np.linalg.eigvalsh(dual)[0])
    rounding = (4.0 * (n + 1) * float(np.finfo(float).eps)
                * (float(np.sum(np.abs(a))) + n * float(np.linalg.norm(dual))))
    return float(np.sum(y)) + n * max(0.0, -lam) + rounding


def approximation_ratio_study(a: np.ndarray, r_star: np.ndarray,
                              n_g_grid, rng: np.random.Generator
                              ) -> list[RandomizationReport]:
    """Measure the randomization quality ratio against a certified bound.

    For each sample count, draw xi ~ CN(0, R*), map every draw to the
    unit-modulus vector xi / |xi| (an entry with xi = 0 becomes 1), and
    report the best quadratic-form value relative to the dual bound
    ``unit_diag_dual_bound(A, R*)``.  That bound is at least the
    relaxation optimum, which is at least every unit-modulus value, so the
    ratio cannot exceed 1 whatever R* is.  For the R* of
    ``solve_unit_diag_relaxation`` the bound exceeds tr(A R*) by at most
    about 2e-7 relative on the ratio study's matrices.
    """
    if np.max(np.abs(np.diagonal(r_star) - 1.0)) > 1e-6:
        raise ConfigError("reference covariance must have unit diagonal")
    a = hermitize(a)
    sdp_obj = unit_diag_dual_bound(a, r_star)
    w, u = np.linalg.eigh(hermitize(r_star))
    half = u * np.sqrt(np.maximum(w, 0.0))
    reports = []
    for n_g in n_g_grid:
        if n_g < 1:
            raise ConfigError(f"sample count must be >= 1, got {n_g}")
        # in place: at n_g = 10^4 each L x n_g complex array is 160 L kB
        xi = half @ complex_normal(rng, r_star.shape[0], int(n_g))
        mag = np.abs(xi)
        np.divide(xi, mag, out=xi, where=mag > 0.0)
        xi[mag == 0.0] = 1.0
        ax = a @ xi
        ax *= np.conj(xi, out=xi)
        best = float(ax.real.sum(axis=0).max())
        reports.append(RandomizationReport(
            n_samples=int(n_g), best_objective=best, sdp_objective=sdp_obj,
            ratio=best / sdp_obj))
    return reports


def solve_unit_diag_relaxation(a: np.ndarray, max_sweeps: int = 1000,
                               tol: float = 1e-12) -> np.ndarray:
    """Maximize tr(A R) over {R >= 0, diag(R) = 1}.

    Row-by-row ascent on the factorization R = V^H V with unit-norm columns
    (the mixing method): the column update v_i <- c_i / ||c_i|| with
    c_i = sum_{j != i} A_ij v_j maximizes the objective over that column
    alone, so sweeps are monotone, and the iterate is PSD with unit
    diagonal by construction.  Sweeps stop once the objective gains at most
    ``tol`` relative.  Optimality is certified separately by
    ``unit_diag_dual_bound``.
    """
    a = hermitize(a)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    f = float(np.real(np.vdot(a, v.conj().T @ v)))
    for _ in range(max_sweeps):
        for i in range(n):
            c = v @ a[:, i] - a[i, i] * v[:, i]
            norm = float(np.linalg.norm(c))
            if norm > 1e-300:
                v[:, i] = c / norm
        f_new = float(np.real(np.vdot(a, v.conj().T @ v)))
        if abs(f_new - f) <= tol * max(1.0, abs(f)):
            break
        f = f_new
    return hermitize(v.conj().T @ v)
