"""Precoder sub-problem: linear objective over an intersection of convex sets.

The relaxed covariance S = sum_k p_k p_k^H is optimized directly (the
objective and both constraints depend on the precoder only through S).
Without the beampattern ball the optimum over C = {S >= 0, tr(S) = P_T} is
P_T u u^H with u the top eigenvector of the objective matrix, so whenever
that matrix lies inside the ball ||S - R_D||_F^2 <= gamma_BP it is the exact
optimum and its factor sqrt(P_T) u is an exact precoder: no iteration and
no randomization.  When the ball binds, the KKT conditions put the optimum
at S(t) = Pi_C(R_D + t Omega) for the one scale t at which S(t) meets the
ball, so the solve is a bisection on t, one eigendecomposition per step,
and ``relaxed_dual_bound`` certifies it; Gaussian randomization against
the relaxed covariance then recovers a precoder.  The Euclidean projection
onto the feasible set, ``dykstra_project``, is the same search along M - R_D.

The approximation-ratio study measures the same randomization on the
unit-modulus problem max x^H A x, against its unit-diagonal relaxation:
coordinate ascent for the relaxation and a dual certificate for the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RandomizationInfeasibleError, SolverError
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
    per nonzero eigenvalue), which makes randomization unnecessary.
    ``kkt_scale``, set when the beampattern ball binds, is the scale t of
    the KKT point the solve stopped at, for ``relaxed_dual_bound``.
    """

    s: np.ndarray
    factor: np.ndarray | None = None
    kkt_scale: float | None = None

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


def project_spectrahedron(m: np.ndarray, target: float) -> np.ndarray:
    """Exact Frobenius projection onto {S >= 0, tr S = target}.

    Eigendecompose and project the spectrum onto the scaled simplex.
    """
    w, u = np.linalg.eigh(hermitize(m))
    return hermitize((u * _simplex_scaled(w, target)) @ u.conj().T)


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


def validate_beampattern_target(r_d: np.ndarray, cfg: SceneConfig):
    """The target must itself be feasible: PSD with trace P_T."""
    w = np.linalg.eigvalsh(hermitize(r_d))
    if w[0] < -1e-8 * max(1.0, float(np.abs(w).max())):
        raise ConfigError("desired covariance R_D is not positive semidefinite")
    if abs(float(np.real(np.trace(r_d))) - cfg.power_budget) > 1e-8 * cfg.power_budget:
        raise ConfigError("desired covariance R_D does not meet the power budget")


def _kkt_point(omega: np.ndarray, cfg: SceneConfig, r_d: np.ndarray,
               t: float) -> tuple[np.ndarray, float]:
    """S(t) = Pi_C(R_D + t Omega) and its squared distance from R_D."""
    s = project_spectrahedron(r_d + t * omega, cfg.power_budget)
    return s, float(np.sum(np.abs(s - r_d) ** 2))


def _bisect_kkt(direction: np.ndarray, cfg: SceneConfig, r_d: np.ndarray, t_lo: float,
                t_hi: float, s_hi: np.ndarray) -> RelaxedCovariance:
    """Bisect [t_lo, t_hi] (S(t_lo) in the ball, s_hi = S(t_hi) outside) to a
    relative width of 1e-13; the ball projection of S(t_hi), at t_hi."""
    gamma = cfg.beampattern_tol
    while t_hi - t_lo > _KKT_REL_WIDTH * t_hi:
        t_mid = 0.5 * (t_lo + t_hi)
        s_mid, dist2 = _kkt_point(direction, cfg, r_d, t_mid)
        if dist2 > gamma:
            t_hi, s_hi = t_mid, s_mid
        else:
            t_lo = t_mid
    return RelaxedCovariance(project_ball(s_hi, r_d, gamma), kkt_scale=t_hi)


def dykstra_project(m: np.ndarray, cfg: SceneConfig, r_d: np.ndarray) -> np.ndarray:
    """Project onto {PSD} n {tr = P_T} n {Frobenius ball around R_D}.

    By KKT the projection of M is Pi_C(R_D + s (M - R_D)) with s = 1/(1 + mu),
    mu the ball's multiplier: s = 1 if that point lies in the ball, else the
    bisection of ``solve_relaxed`` finds s.  (The name, from the Dykstra
    iteration this replaced, is kept for the benchmark's tracer.)
    """
    validate_beampattern_target(r_d, cfg)
    direction = hermitize(m) - r_d
    s, dist2 = _kkt_point(direction, cfg, r_d, 1.0)
    if dist2 <= cfg.beampattern_tol:
        return s
    return _bisect_kkt(direction, cfg, r_d, 0.0, 1.0, s).s


def relaxed_dual_bound(omega: np.ndarray, cfg: SceneConfig, r_d: np.ndarray,
                       t: float) -> float:
    """Upper bound on max tr(S Omega) over the feasible covariance set.

    For any t > 0 the Lagrangian with multiplier 1/(2t) on the ball is,
    after completing the square, maximized over C = {S >= 0, tr S = P_T}
    by S(t) = Pi_C(R_D + t Omega); its value
    tr(Omega S(t)) + (gamma - ||S(t) - R_D||^2) / (2t) bounds the optimum
    by weak duality.
    """
    if not t > 0:
        raise ConfigError(f"dual scale must be positive, got t={t}")
    omega = hermitize(omega)
    s, dist2 = _kkt_point(omega, cfg, r_d, t)
    return (float(np.real(np.vdot(omega, s)))
            + (cfg.beampattern_tol - dist2) / (2.0 * t))


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
    ``relaxed_dual_bound``.  A point S(t) inside the ball that attains
    P_T * lambda_max(Omega) to 1e-12 relative is returned as it is (a
    repeated top eigenvalue can leave S(t) inside the ball for every t);
    SolverError if neither happens within a fixed number of doublings.
    """
    validate_beampattern_target(r_d, cfg)
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
            return RelaxedCovariance(s_hi)
        t_lo, t_hi = t_hi, 2.0 * t_hi
    else:
        raise SolverError(
            f"KKT search: S(t) stayed inside the beampattern ball below its "
            f"optimum after {_KKT_MAX_DOUBLINGS} doublings of t")
    return _bisect_kkt(omega, cfg, r_d, t_lo, t_hi, s_hi)


def relaxed_objective(s: RelaxedCovariance, omega: np.ndarray) -> float:
    """tr(S Omega), the relaxation bound on the precoder objective."""
    return float(np.real(np.vdot(omega, s.s)))


def precoder_objective(p: Precoder, omega: np.ndarray) -> float:
    """tr(P P^H Omega) for a concrete precoder."""
    return float(np.real(np.vdot(p.p, omega @ p.p)))


def _leading_factor(w: np.ndarray, u: np.ndarray, k: int) -> np.ndarray:
    """F with F F^H the top-k eigen-truncation of U diag(w) U^H (w >= 0),
    zero-padded to k columns."""
    n = u.shape[0]
    out = np.zeros((n, k), dtype=complex)
    lead = np.argsort(w)[::-1][: min(k, n)]
    out[:, : lead.size] = u[:, lead] * np.sqrt(w[lead])
    return out


def factor_precoder(s: RelaxedCovariance, k: int, omega: np.ndarray,
                    cfg: SceneConfig, r_d: np.ndarray,
                    rng: np.random.Generator, n_g: int) -> Precoder:
    """Recover a K-column precoder from the relaxed covariance.

    When S carries an exact factor of at most K columns, that factor padded
    with zero columns is the only candidate: it attains the relaxation
    bound, so no draw could beat it and none is taken from ``rng``.
    Otherwise candidate 0 is the deterministic top-K eigenpair
    factorization and the remaining n_g candidates draw each column from
    CN(0, S/K).  Every candidate is rescaled to meet the power budget
    exactly, candidates violating the beampattern ball are discarded, and
    the feasible one with the largest objective wins.  If none is feasible,
    the rank-K eigen-truncation of R_D, rescaled to the power budget, is
    returned when it lies in the ball; otherwise the recovery fails.
    """
    if n_g < 1:
        raise ConfigError(f"randomization sample count must be >= 1, got {n_g}")
    n = s.s.shape[0]
    p_t, gamma = cfg.power_budget, cfg.beampattern_tol

    def feasible(cand):
        """``cand`` rescaled to the power budget, or None outside the ball."""
        pw = float(np.sum(np.abs(cand) ** 2))
        if pw <= 0.0:
            return None
        cand = cand * math.sqrt(p_t / pw)
        gram = cand @ cand.conj().T
        if float(np.sum(np.abs(gram - r_d) ** 2)) > gamma:
            return None
        return cand

    if s.factor is not None and s.factor.shape[1] <= k:
        cand0 = np.zeros((n, k), dtype=complex)
        cand0[:, : s.factor.shape[1]] = s.factor
        n_draws = 0
    else:
        w, u = np.linalg.eigh(hermitize(s.s))
        w = np.maximum(w, 0.0)
        cand0 = _leading_factor(w, u, k)
        half = u * np.sqrt(w / k)   # half @ z has covariance S/K for z ~ CN(0, I)
        n_draws = n_g

    best_p, best_obj = None, -math.inf
    for idx in range(n_draws + 1):
        cand = feasible(cand0 if idx == 0 else half @ complex_normal(rng, n, k))
        if cand is None:
            continue
        obj = float(np.real(np.vdot(cand, omega @ cand)))
        if obj > best_obj:
            best_p, best_obj = cand, obj
    if best_p is None:
        w, u = np.linalg.eigh(hermitize(r_d))
        best_p = feasible(_leading_factor(np.maximum(w, 0.0), u, k))
    if best_p is None:
        raise RandomizationInfeasibleError(
            "randomization infeasible: neither a candidate nor the rank-K "
            "truncation of R_D lies in the beampattern ball")
    return Precoder(best_p)


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
