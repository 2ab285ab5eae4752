"""Precoder sub-problem: linear objective over an intersection of convex sets.

The relaxed covariance S = sum_k p_k p_k^H is optimized directly (the
objective and both constraints depend on the precoder only through S).
Without the beampattern ball the optimum over C = {S >= 0, tr(S) = P_T} is
P_T u u^H with u the top eigenvector of the objective matrix, so whenever
that matrix lies inside the ball ||S - R_D||_F^2 <= gamma_BP it is the exact
optimum and its factor sqrt(P_T) u is an exact precoder: no iteration.
When the ball binds, the KKT conditions put the optimum at
S(t) = Pi_C(R_D + t Omega) for the one scale t at which S(t) meets the
ball, so the solve is a bracketing root search on t (Chandrupatla's
method), one eigendecomposition per step, and ``relaxed_dual_bound``
certifies it.  The precoder is then recovered deterministically along the
rank-K path S_K(t) = Pi_{C_K}(R_D + t Omega) (``factor_precoder``).  The
Euclidean projection onto the feasible set, ``dykstra_project``, is the
same search along M - R_D.

The approximation-ratio study measures Gaussian randomization on the
unit-modulus problem max x^H A x, against its unit-diagonal relaxation:
the same minorization step (a generalized power method) for the
relaxation, run on coordinates in the eigenbasis of A at its rank, a dual
certificate for the bound, and draws and scores formed at the rank of R*
and of A: each sample count takes 2 r n_g standard normals, r the number
of eigenpairs of R* above rounding level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError
from .objective import Precoder, hermitize
from .scene import SceneConfig, ula_steering
# Unused since the ratio study draws at the rank of R*; kept for the tracer,
# which counts calls to it here by name.
from .scene import complex_normal  # noqa: F401

# Relative width of the bracket on t at which the KKT search stops.
_KKT_REL_WIDTH = 1e-13
# Doublings of t after which the KKT search gives up.
_KKT_MAX_DOUBLINGS = 200
# Candidate columns the ratio study forms at a time, which bounds its memory.
_RATIO_CHUNK = 512
# Relative gain at which the unit-diagonal ascent stops, and its step cap.
_UNIT_DIAG_TOL = 1e-12
_UNIT_DIAG_MAX_STEPS = 10_000
# Relative asymmetry above which project_psd rejects its input.
_HERM_TOL = 1e-10


@dataclass
class RelaxedCovariance:
    """Optimizer of the relaxed (covariance-level) precoder problem.

    ``factor``, when set, is an exact factor F with S = F F^H (one column
    per nonzero eigenvalue).  ``kkt_scale``, set when the beampattern ball
    binds, is the scale t of the KKT point the solve stopped at, and
    ``dual_bound`` is ``relaxed_dual_bound`` at that scale.
    ``in_ball_scale``, set whenever the KKT search ran, is the largest scale
    at which S(t) was tested inside the ball; ``factor_precoder`` starts its
    search there.
    """

    s: np.ndarray
    factor: np.ndarray | None = None
    kkt_scale: float | None = None
    in_ball_scale: float | None = None
    dual_bound: float | None = None

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


def project_psd(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (eigenvalue clamp).

    Nothing in the library calls it; the name stays because the tracer
    counts calls to it here.
    """
    asym = np.linalg.norm(m - m.conj().T)
    if asym > _HERM_TOL * np.linalg.norm(m):
        raise ConfigError(f"input is not Hermitian (asymmetry {asym:.3e})")
    w, u = np.linalg.eigh(hermitize(m))
    w = np.maximum(w, 0.0)
    return hermitize((u * w) @ u.conj().T)


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


def default_beampattern_target(cfg: SceneConfig) -> np.ndarray:
    """Desired transmit covariance: omni floor plus a beam toward the surface.

    R_D = (1 - mix) * (P_T/N) I + mix * P_T b b^H with b the normalized
    transmit steering vector toward the surface: a convex combination of
    two PSD matrices of trace P_T (mix lies in [0, 1]), so feasible by
    construction.
    """
    n, p_t, mix = cfg.n_tx, cfg.power_budget, cfg.beampattern_mix
    b = ula_steering(cfg.radar_irs_azimuth, n, cfg.spacing_over_lambda)
    b = b / np.linalg.norm(b)
    return (1.0 - mix) * (p_t / n) * np.eye(n) + mix * p_t * np.outer(b, b.conj())


def check_beampattern_target(r_d: np.ndarray, cfg: SceneConfig):
    """The target must itself be a feasible covariance: PSD with trace P_T."""
    w = np.linalg.eigvalsh(hermitize(r_d))
    if w[0] < -1e-8 * float(np.abs(w).max()):
        raise ConfigError("desired covariance R_D is not positive semidefinite")
    if abs(float(np.real(np.trace(r_d))) - cfg.power_budget) > 1e-8 * cfg.power_budget:
        raise ConfigError("desired covariance R_D does not meet the power budget")


def validate_beampattern_target(cfg: SceneConfig):
    """The scene's target R_D (``default_beampattern_target``) must be
    feasible, and the ball must hold a K-column precoder (K =
    ``cfg.n_users``): S_K(0) = Pi_{C_K}(R_D), the nearest rank-K covariance
    to R_D and ``factor_precoder``'s last resort, must lie in it.
    """
    r_d = default_beampattern_target(cfg)
    check_beampattern_target(r_d, cfg)
    # a covariance with no factor or in-ball scale is recovered as S_K(0)
    factor_precoder(RelaxedCovariance(r_d), r_d, cfg, r_d)


def _kkt_point(omega: np.ndarray, cfg: SceneConfig, r_d: np.ndarray,
               t: float) -> tuple[np.ndarray, float]:
    """S(t) = Pi_C(R_D + t Omega) and its squared distance from R_D."""
    s = project_spectrahedron(r_d + t * omega, cfg.power_budget)
    return s, float(np.sum(np.abs(s - r_d) ** 2))


def _kkt_root(point, gamma: float, lo, hi, floor: float = 0.0):
    """Find where the nondecreasing d(t) crosses gamma by Chandrupatla's
    bracketing method (Adv. Eng. Softw. 28, 1997), ``point(t)`` giving
    (x, d(t)), x's squared distance from R_D.  The ends are tested points
    (t, x, d): lo inside the ball (d <= gamma), hi outside.  Each step
    tries inverse quadratic interpolation through both ends and the end
    dropped last, where Chandrupatla's test finds d monotone enough for it,
    else the midpoint, and keeps the trial half the stopping width inside
    either end, so the bracket closes from both sides.  The search stops at
    a width of 1e-13 * t_hi, or ``floor`` if wider; the final (lo, hi).  It
    also stops at adjacent floats, so t_hi stays positive when no t > 0
    tests inside the ball (a gamma at the rounding level of the distance).
    """
    a, b, c = hi, lo, None     # a: the end tested last; c: the end dropped last
    while hi[0] - lo[0] > (tol := max(_KKT_REL_WIDTH * hi[0], floor)):
        fa, fb = a[2] - gamma, b[2] - gamma
        if c is None:
            step = fa / (fa - fb)    # a first step by linear interpolation
        else:
            ta, tb, tc, fc = a[0], b[0], c[0], c[2] - gamma
            xi, ph = (ta - tb) / (tc - tb), (fa - fb) / (fc - fb)
            step = 0.5
            if ph * ph < xi and (1.0 - ph) ** 2 < 1.0 - xi:
                step = (fa / (fb - fa) * fc / (fb - fc) + (tc - ta) / (tb - ta)
                        * fa / (fc - fa) * fb / (fc - fb))
        margin = 0.5 * tol / (hi[0] - lo[0])
        t = a[0] + min(max(step, margin), 1.0 - margin) * (b[0] - a[0])
        if not lo[0] < t < hi[0]:
            break
        new = (t, *point(t))
        if (new[2] > gamma) == (a[2] > gamma):
            c = a
        else:
            b, c = a, b
        a = new
        if new[2] > gamma:
            hi = new
        else:
            lo = new
    return lo, hi


def dykstra_project(m: np.ndarray, cfg: SceneConfig, r_d: np.ndarray) -> np.ndarray:
    """Project onto {PSD} n {tr = P_T} n {Frobenius ball around R_D}.

    By KKT the projection of M is Pi_C(R_D + s (M - R_D)) with s = 1/(1 + mu),
    mu the ball's multiplier: s = 1 if that point lies in the ball, else the
    root search of ``solve_relaxed`` finds s.  Nothing in the library calls
    it; it is kept for the tracer, under the name of the Dykstra iteration
    it replaced.
    """
    check_beampattern_target(r_d, cfg)
    direction = hermitize(m) - r_d
    s, dist2 = _kkt_point(direction, cfg, r_d, 1.0)
    if dist2 <= cfg.beampattern_tol:
        return s
    # S(0) = Pi_C(R_D) = R_D
    _, (_, s, _) = _kkt_root(lambda t: _kkt_point(direction, cfg, r_d, t),
                             cfg.beampattern_tol, (0.0, r_d, 0.0),
                             (1.0, s, dist2))
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
    return _dual_bound(omega, cfg, r_d, t, *_kkt_point(omega, cfg, r_d, t))


def _dual_bound(omega: np.ndarray, cfg: SceneConfig, r_d: np.ndarray,
                t: float, s: np.ndarray, dist2: float) -> float:
    """``relaxed_dual_bound`` from S(t) = s and its squared distance from
    R_D, for a Hermitian Omega."""
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
    sqrt(gamma) / ||Omega||_F until S(t) leaves the ball, then closing that
    bracket with ``_kkt_root`` to a relative width of 1e-13.  The result is
    the ball projection of the outer end S(t_hi), a convex combination of
    two points of C, so it is feasible by construction; ``kkt_scale`` keeps
    t_hi, ``dual_bound`` the ``relaxed_dual_bound`` there (from the S(t_hi)
    at hand) and ``in_ball_scale`` keeps t_lo.  A point S(t)
    inside the ball that attains P_T * lambda_max(Omega) to 1e-12 relative
    is returned as it is, with in-ball scale t (a repeated top eigenvalue
    can leave S(t) inside the ball for every t); SolverError if neither
    happens within a fixed number of doublings.  R_D is checked when a
    config loads (``validate_beampattern_target``), not here.
    """
    omega = hermitize(omega)
    w, u = np.linalg.eigh(omega)
    top = u[:, -1:]
    s = cfg.power_budget * (top @ top.conj().T)
    if float(np.sum(np.abs(s - r_d) ** 2)) <= cfg.beampattern_tol:
        return RelaxedCovariance(s, factor=math.sqrt(cfg.power_budget) * top)
    gamma = cfg.beampattern_tol
    attainable = cfg.power_budget * float(w[-1])
    scale = float(np.linalg.norm(omega))
    t = math.sqrt(gamma) / scale if scale > 0.0 else 1.0
    lo = (0.0, r_d, 0.0)     # S(0) = Pi_C(R_D) = R_D
    for _ in range(_KKT_MAX_DOUBLINGS):
        hi = (t, *_kkt_point(omega, cfg, r_d, t))
        if hi[2] > gamma:
            break
        if (float(np.real(np.vdot(omega, hi[1])))
                >= attainable - 1e-12 * abs(attainable)):
            return RelaxedCovariance(hi[1], in_ball_scale=t)
        lo, t = hi, 2.0 * t
    else:
        raise SolverError(
            f"KKT search: S(t) stayed inside the beampattern ball below its "
            f"optimum after {_KKT_MAX_DOUBLINGS} doublings of t")
    lo, (t_hi, s_hi, dist2) = _kkt_root(
        lambda t: _kkt_point(omega, cfg, r_d, t), gamma, lo, hi)
    return RelaxedCovariance(
        project_ball(s_hi, r_d, gamma), kkt_scale=t_hi, in_ball_scale=lo[0],
        dual_bound=_dual_bound(omega, cfg, r_d, t_hi, s_hi, dist2))


def relaxed_objective(s: RelaxedCovariance, omega: np.ndarray) -> float:
    """tr(S Omega), the relaxation bound on the precoder objective."""
    return float(np.real(np.vdot(omega, s.s)))


def precoder_objective(p: Precoder, omega: np.ndarray) -> float:
    """tr(P P^H Omega) for a concrete precoder."""
    return float(np.real(np.vdot(p.p, omega @ p.p)))


def factor_precoder(s: RelaxedCovariance, omega: np.ndarray,
                    cfg: SceneConfig, r_d: np.ndarray) -> Precoder:
    """Recover a K-column precoder, K = ``cfg.n_users``, with no draws.

    An exact factor of at most K columns (slack ball), zero-padded and
    rescaled to the power budget, is the precoder; its Gram matrix is S,
    which passed the ball test, up to rounding.  Otherwise the precoder is
    the factor of S_K(t) = Pi_{C_K}(R_D + t Omega), C_K = {S >= 0,
    tr S = P_T, rank S <= K}, at the largest t tested inside the ball: S's
    in-ball scale t_in, where S_K = S if rank S(t_in) <= K, else the root
    search of ``solve_relaxed`` on [0, t_in], to a width of 1e-13 t_in,
    which keeps its tested in-ball end.
    (S_K(t) minimizes ||S - R_D||^2 - 2t tr(Omega S) over C_K, so both terms
    are nondecreasing in t; returning only tested points guards against
    rounding.)  S_K(0) is the point ``validate_beampattern_target`` tests,
    and the answer when S has neither a factor nor an in-ball scale.
    """
    gamma, k = cfg.beampattern_tol, cfg.n_users
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
        hi = (t_in, p, dist2)
        p, dist2 = point(0.0)
        if dist2 <= gamma:
            (_, p, dist2), _ = _kkt_root(point, gamma, (0.0, p, dist2), hi,
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
    ``unit_diag_dual_bound(A, R*)``.  Both matrices enter at their rank:
    xi = U_r Lambda_r^(1/2) z over the r eigenpairs of R* above rounding
    level (lambda_j > L eps lambda_max), with z ~ CN(0, I_r) drawn as two
    r x n_g blocks of standard normals (real parts, then imaginary), so
    the generator advances by 2 r n_g normals per sample count; and the
    candidates, formed a fixed number of columns at a time and normalized
    by ``_unit_modulus`` (the masked divide up to the sign of a zero
    part), are ranked by sum_i mu_i |e_i^H x|^2 over the eigenpairs
    (mu_i, e_i) of A above rounding level, the first best one winning.
    The reported value is the winner's dense x^H A x, an exact
    unit-modulus value, so the ratio cannot exceed 1 whatever R* is: the
    bound is at least the relaxation optimum, which is at least every
    unit-modulus value.
    """
    if np.max(np.abs(np.diagonal(r_star) - 1.0)) > 1e-6:
        raise ConfigError("reference covariance must have unit diagonal")
    a = hermitize(a)
    sdp_obj = unit_diag_dual_bound(a, r_star)
    w, u = np.linalg.eigh(hermitize(r_star))
    rows = _above_rounding(w)
    # scale-free: the 1/sqrt(2) of CN(0, 1) cancels in xi / |xi|
    half = u[:, rows] * np.sqrt(w[rows])
    mu, e = np.linalg.eigh(a)
    cols = _above_rounding(np.abs(mu))
    mu, e_h = mu[cols], e[:, cols].conj().T
    reports = []
    for n_g in n_g_grid:
        if n_g < 1:
            raise ConfigError(f"sample count must be >= 1, got {n_g}")
        z = np.empty((half.shape[1], int(n_g)), dtype=complex)
        z.real = rng.standard_normal(z.shape)
        z.imag = rng.standard_normal(z.shape)
        best_score, best_x = None, None
        for j in range(0, int(n_g), _RATIO_CHUNK):
            x = _unit_modulus(half @ z[:, j:j + _RATIO_CHUNK])
            proj = (e_h @ x).view(float)             # Re, Im interleaved
            np.square(proj, out=proj)
            score = mu @ (proj[:, 0::2] + proj[:, 1::2])
            i = int(np.argmax(score))
            if best_x is None or score[i] > best_score:   # first index wins
                best_score, best_x = score[i], x[:, i]
        best = float(np.real(np.vdot(best_x, a @ best_x)))
        reports.append(RandomizationReport(
            n_samples=int(n_g), best_objective=best, sdp_objective=sdp_obj,
            ratio=best / sdp_obj))
    return reports


def _unit_modulus(x: np.ndarray) -> np.ndarray:
    """x / |x| in place, with 1 where x = 0.

    Multiplying by 1/|x| is bit-equal to the masked complex divide
    ``np.divide(x, |x|, where=|x| > 0)``, which divides by |x| + 0j as
    (re + im 0, im - re 0) * (1 / |x|), except for the sign of an
    exactly-zero real or imaginary part, which the two can set
    differently and no later sum or comparison sees; and it is cheaper.
    """
    mag = np.abs(x)
    zero = mag == 0.0
    mag[zero] = 1.0
    x *= np.reciprocal(mag, out=mag)
    x[zero] = 1.0
    return x


def _above_rounding(w: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues w above rounding level, L eps max(w)."""
    return w > w.size * float(np.finfo(float).eps) * float(w.max(initial=0.0))


def solve_unit_diag_relaxation(a: np.ndarray) -> np.ndarray:
    """Maximize tr(A R) over {R >= 0, diag(R) = 1}.

    The generalized power method (Journee et al., JMLR 2010) on R = V^H V
    with unit-norm columns, which is the minorization step of the phase
    update applied to this set.  With B = A + sigma I, sigma =
    max(0, -lambda_min(A)), tr(A R) = tr(V B V^H) - L sigma on the set and
    tr(V B V^H) is convex in V, so its linearization at V minorizes it;
    V <- V B with every column normalized maximizes that linearization in
    closed form, so the steps ascend monotonically.  The iterate is PSD
    with unit diagonal by construction (where a column of V B is 0, V keeps
    its column).  From V = I, steps stop once |f_new - f| <= 1e-12 |f|, or
    after a fixed number of steps, so A and 2^k A give the same bits.
    Optimality is certified separately by ``unit_diag_dual_bound``.

    The steps run at the rank of B.  One ``eigh`` gives B = E M E^H over
    its r eigenvalues above rounding level (r = 5 for the ratio study's
    A = U3; r = L - 1 or so for an indefinite A).  After the first step
    every column of V lies in span(E), so V = E Z and a step is
    Z <- normalize_cols((Z E M) E^H) on the r x L coordinates, O(r^2 L)
    where V B is O(L^3).  R = Z^H Z.  A coordinate whose column of A is
    zero keeps its e_i (Z's column is 0 there and R_ii = 1); the ``eigh``
    leaves such coordinates out, so E is exactly zero on them (an ``eigh``
    of all of A leaves rounding noise there, which normalizing amplifies).
    Dropping B's eigenvalues below rounding level moves R at rounding
    level against the dense V <- V B (``tests/reference.py``).
    """
    a = hermitize(a)
    n = a.shape[0]
    live = np.any(a != 0.0, axis=0)
    w, u = np.linalg.eigh(a[np.ix_(live, live)])
    shift = max(0.0, -float(w.min(initial=0.0)))
    m = w + shift
    keep = _above_rounding(m)
    m = m[keep]
    e_h = np.zeros((m.size, n), dtype=complex)
    e_h[:, live] = u[:, keep].conj().T
    g = m[:, np.newaxis] * e_h             # V B at V = I, in the basis E
    f = float(np.real(np.trace(a)))        # tr(A R) at R = I
    norms = np.linalg.norm(g, axis=0)
    fixed = norms == 0.0                   # V keeps e_i there, Z's column 0
    em = e_h.conj().T * m                  # E M
    offset = np.count_nonzero(~fixed) * shift
    z = np.zeros_like(g)
    np.divide(g, norms, out=z, where=~fixed)
    for _ in range(_UNIT_DIAG_MAX_STEPS - 1):
        g = (z @ em) @ e_h
        f_new = float(np.real(np.vdot(z, g))) - offset     # tr(A Z^H Z)
        if abs(f_new - f) <= _UNIT_DIAG_TOL * abs(f):
            break
        f = f_new
        norms = np.linalg.norm(g, axis=0)
        np.divide(g, norms, out=z, where=norms != 0.0)
    r = z.conj().T @ z
    r[fixed, fixed] = 1.0
    return hermitize(r)
