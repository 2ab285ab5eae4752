"""Precoder sub-problem: linear objective over an intersection of convex sets.

The relaxed covariance S = sum_k p_k p_k^H is optimized directly (the
objective and both constraints depend on the precoder only through S).
Without the beampattern ball the optimum over C = {S >= 0, tr(S) = P_T} is
P_T u u^H with u the top eigenvector of the objective matrix, so whenever
that lies inside the ball ||S - R_D||_F^2 <= gamma_BP it is the exact
optimum and sqrt(P_T) u an exact precoder: no iteration.  Omega comes as
``objective.OmegaRows`` X^H diag(d) X, in a run over the 1 + K effective
channels, whose Gram matrix gives u, lambda_max(Omega), ||Omega||_F and the
certified ``slack_bound``; no N x N Omega is formed.  The scene's target
R_D = c I + d b b^H is one cached object per scene (``_Target``): b, R_D,
||R_D||_F^2 and the rounding units, and S_K(0), the nearest rank-K
covariance to R_D, formed on first read.  The ball test takes the slack
distance in O(N) from b^H u (``slack_distance``), and the dense one only
within its rounding band of gamma.  When the ball binds, the KKT
conditions put the optimum at S(t) = Pi_C(R_D + t Omega) for the one t at
which S(t) meets the ball, so the solve is a bracketing root search on t
(Chandrupatla's method) over tested points ``KktPoint(t, x, dist2)``,
certified by ``KktForm.dual_bound``.  Omega has rank <= 1 + K, so
R_D + t Omega is c I plus a form of dimension r <= K + 2 (``KktForm``):
each tested t costs one r x r ``eigh``.  The precoder, the nonzero
columns of a factor, is recovered along the rank-K path
S_K(t) = Pi_{C_K}(R_D + t Omega) (``factor_precoder``) on the same form,
and ``dykstra_project`` is the same search along M - R_D.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, SolverError
from .objective import EPS, OmegaRows, Precoder, hermitize
from .scene import SceneConfig, ula_steering
# Unused here; kept for the tracer, which counts calls to it here by name.
from .scene import complex_normal  # noqa: F401
# The ratio study, kept for perfbench, which wraps and calls it here by name.
from .ratio import (approximation_ratio_study,  # noqa: F401
                    solve_unit_diag_relaxation)

# Relative width of the bracket on t at which the KKT search stops.
_KKT_REL_WIDTH = 1e-13
# Doublings of t after which the KKT search gives up.
_KKT_MAX_DOUBLINGS = 200
# Relative asymmetry above which project_psd rejects its input.
_HERM_TOL = 1e-10


class RelaxedCovariance:
    """Optimizer of the relaxed (covariance-level) precoder problem.

    ``s`` is S, N x N.  ``factor``, set by ``slack`` alone, is the exact
    one-column factor sqrt(P_T) u of S = P_T u u^H.
    ``kkt_scale``, set when the beampattern ball binds, is the scale t of
    the KKT point the solve stopped at, and ``dual_bound`` is
    ``KktForm.dual_bound`` at that scale.  ``in_ball_scale``, set whenever
    the KKT search ran, is the largest scale at which S(t) was tested
    inside the ball, and ``form`` the ``KktForm`` it ran on;
    ``factor_precoder`` starts its search there, on that form.  The slack
    optimum P_T u u^H (``slack``) forms ``s`` only when it is first read:
    the alternating loop reads its factor and bound only.
    """

    # defaults: slack sets only the factor and bound, __init__ no factor
    kkt_scale = in_ball_scale = form = factor = None

    def __init__(self, s: np.ndarray, kkt_scale: float | None = None,
                 in_ball_scale: float | None = None,
                 dual_bound: float | None = None,
                 form: KktForm | None = None):
        s = np.asarray(s, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ConfigError("relaxed covariance must be square")
        if in_ball_scale is not None and form is None:
            raise ConfigError("an in-ball scale needs the form it was tested on")
        self._s = s
        self.kkt_scale, self.in_ball_scale = kkt_scale, in_ball_scale
        self.dual_bound, self.form = dual_bound, form

    @classmethod
    def slack(cls, top: np.ndarray, power: float, dual_bound: float
              ) -> "RelaxedCovariance":
        """S = P_T u u^H for the unit vector u = ``top``, with the factor
        sqrt(P_T) u; S itself is formed on first use."""
        out = cls.__new__(cls)
        out._s, out._top, out._power = None, top[:, np.newaxis], power
        out.factor, out.dual_bound = math.sqrt(power) * out._top, dual_bound
        return out

    @property
    def s(self) -> np.ndarray:
        if self._s is None:
            top = self._top
            self._s = self._power * (top @ top.conj().T)
        return self._s


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


def _simplex_scaled(w: np.ndarray, target: float, copies: int = 0
                    ) -> tuple[np.ndarray, float]:
    """Project the real vector of ``w`` (ascending, as ``eigh`` returns it)
    and ``copies`` zeros onto {v >= 0, sum v = target}: (v, v0), v0 the
    entry of each zero (0 where there are none).

    The projection is max(x - tau, 0), and its support is a prefix of the
    entries in descending order: an entry joins while it exceeds the tau
    of the entries before it, so equal entries join together and the
    zeros count as one entry of weight ``copies``.  The projection is
    invariant to a common shift of the entries; shifting the largest to 0
    (in the output too, not only in tau) keeps the partial sums, and so
    the sum of the output, accurate when the entries are large against
    ``target``.
    """
    vals, counts = w.tolist(), [1] * w.size
    shift = max(vals[-1], 0.0) if copies else vals[-1]
    if copies:
        at = bisect.bisect_right(vals, 0.0)
        vals.insert(at, 0.0)
        counts.insert(at, copies)
    excess, size = -target, 0        # the support's sum less target, its size
    for x, count in zip(reversed(vals), reversed(counts)):
        x -= shift
        if size and x * size <= excess:
            break
        excess, size = excess + count * x, size + count
    w, tau = w - shift, excess / size
    return np.maximum(w - tau, 0.0), max(-shift - tau, 0.0) if copies else 0.0


def project_spectrahedron(m: np.ndarray, target: float) -> np.ndarray:
    """Exact Frobenius projection onto {S >= 0, tr S = target}.

    Eigendecompose and project the spectrum onto the scaled simplex
    (exact; Kyrillidis et al., ICML 2013).
    """
    w, u = np.linalg.eigh(hermitize(m))
    v, _ = _simplex_scaled(w, target)
    return hermitize((u * v) @ u.conj().T)


class KktPoint(NamedTuple):
    """A point tested by a KKT search: scale t, point x at t (a ``KktForm``
    point, or a rank-K factor F) and x's squared distance from R_D."""

    t: float
    x: object
    dist2: float


# S(0) = Pi_C(R_D) = R_D: the inner end of every search on the relaxed path
_AT_TARGET = KktPoint(t=0.0, x=None, dist2=0.0)


class _Target:
    """The scene's R_D = c I + d b b^H (``default_beampattern_target``), b
    and ``r_d`` read-only, ``norm2`` = ||R_D||_F^2, ``slack_distance``'s
    rounding ``band`` and ``err`` = 4 N eps, unit of the rounding allowances."""

    def __init__(self, n: int, p_t: float, mix: float, azimuth: float,
                 spacing: float, k: int):
        b = ula_steering(azimuth, n, spacing)
        self.b = b = b / np.linalg.norm(b)
        self.c, self.d = c, d = (1.0 - mix) * (p_t / n), mix * p_t
        self.r_d = c * np.eye(n) + d * np.outer(b, b.conj())
        b.flags.writeable = self.r_d.flags.writeable = False
        self.norm2 = norm2 = n * c ** 2 + 2.0 * c * d + d ** 2
        self.band = 4.0 * (n + 2) ** 2 * EPS * (p_t + math.sqrt(norm2)) ** 2
        self.err = 4.0 * n * EPS
        self._p_t, self._k = p_t, k

    @functools.cached_property
    def nearest(self) -> KktPoint:
        """S_K(0) = Pi_{C_K}(R_D), the nearest rank-K covariance to R_D, as
        (0, F, ||F F^H - R_D||^2): F (N x K, zero-padded, read-only) from a
        dense ``eigh`` of R_D, whose ties it breaks as that ``eigh`` does,
        formed on first read."""
        n, k = self.r_d.shape[0], self._k
        w, u = np.linalg.eigh(self.r_d)
        f = np.zeros((n, k), dtype=complex)
        f[:, :min(k, n)] = u[:, -k:] * np.sqrt(_simplex_scaled(w[-k:],
                                                               self._p_t)[0])
        f.flags.writeable = False
        return KktPoint(0.0, f, _distance2(f, self.r_d))


_target_of = functools.lru_cache(maxsize=16)(_Target)


def _target(cfg: SceneConfig) -> _Target:
    """The scene's target, cached on the six scalars it depends on."""
    return _target_of(cfg.n_tx, cfg.power_budget, cfg.beampattern_mix,
                      cfg.radar_irs_azimuth, cfg.spacing_over_lambda,
                      cfg.n_users)


def default_beampattern_target(cfg: SceneConfig) -> np.ndarray:
    """Desired transmit covariance: omni floor plus a beam toward the surface.

    R_D = (1 - mix) * (P_T/N) I + mix * P_T b b^H with b the normalized
    transmit steering vector toward the surface: a convex combination of
    two PSD matrices of trace P_T (mix lies in [0, 1]), so feasible by
    construction.  Every solver reads this target from the scene.
    """
    return _target(cfg).r_d.copy()


def target_check_bytes(n_tx: int, n_users: int) -> int:
    """Bytes the beampattern check (``validate_beampattern_target``) holds
    at its peak, N = ``n_tx`` and K = ``n_users``: six N x N complex arrays
    (R_D, and in the dense ``eigh`` its input copy, eigenvectors and
    LAPACK's complex and real workspace, with room for the allocator), two
    N x K complex arrays (S_K(0)'s factor F and the F^H of its distance)
    and 4 MiB for the first ``eigh`` of a process.  Measured as the growth
    of a fresh process's peak resident set over the check: 2.3 MB at
    N = 16, 83 and 81 bytes per N^2 at N = 1024 and 2000, and 18 bytes per
    N K at N = 16, K = 2^20, where F's zero padding is never touched (one
    BLAS thread, numpy 2.4.6, OpenBLAS 0.3.31, x86-64)."""
    return 16 * (6 * n_tx * n_tx + 2 * n_tx * n_users) + (4 << 20)


def validate_beampattern_target(cfg: SceneConfig) -> KktPoint:
    """S_K(0) (``_Target.nearest``), ``factor_precoder``'s last resort;
    ConfigError unless it lies in the ball by its dense distance, as then
    no K-column precoder does.  Its arrays are counted
    (``target_check_bytes``) before a config's check runs."""
    nearest, gamma = _target(cfg).nearest, cfg.beampattern_tol
    if nearest.dist2 > gamma:
        raise ConfigError(f"beampattern ball too tight: the nearest "
                          f"{cfg.n_users}-column precoder to R_D is at squared "
                          f"distance {nearest.dist2:.6g} > {gamma:.6g}")
    return nearest


class KktForm:
    """R_D + t Omega = c I + Q (A0 + t A1) Q^H, the form the KKT searches
    run on.

    R_D = c I + d b b^H (``default_beampattern_target`` of ``cfg``) and
    Omega = X^H diag(w) X over the rows X of an ``OmegaRows``, so
    R_D + t Omega is c I plus a form on span{b, X^H}.  The form of
    ``omega`` takes Q (N x r), an orthonormal basis of that span, from one
    thin QR of
    [b, X^H] = Q [beta, Y]: A0 = d beta beta^H and A1 = Y diag(w) Y^H.
    From the 1 + K rows of the effective channels r <= K + 2 and
    A0 + t A1 >= 0; from N or more rows, or signed weights (the form of
    ``dykstra_project``), r = N.  On the complement of span Q,
    R_D + t Omega is c I.

    A point is (V, v, v0): A0 + t A1 = V diag(lam) V^H, and the point is
    Q V diag(v) V^H Q^H + v0 (I - Q Q^H).  Testing a scale t costs one
    r x r ``eigh``; ``dense`` forms the N x N matrix of a point, and
    ``rank_factor`` the N x K factor of a rank-K point.
    """

    def __init__(self, omega: OmegaRows, cfg: SceneConfig):
        target = _target(cfg)
        self.c, self.d, self.err = target.c, target.d, target.err
        rows, self.cfg = omega.rows, cfg
        n = rows.shape[1]
        span = np.empty((n, 1 + rows.shape[0]), dtype=complex)
        span[:, 0] = target.b
        np.conjugate(rows.T, out=span[:, 1:])
        self.q, r1 = np.linalg.qr(span)
        self.beta, y = r1[:, 0], r1[:, 1:]
        self.a1 = a1 = hermitize((y * omega.weights) @ y.conj().T)
        self.copies = n - self.q.shape[1]     # the complement's dimension
        self.beta_conj = self.beta.conj()
        self.a0 = self.d * np.outer(self.beta, self.beta_conj)
        self.norm_omega = math.sqrt(float(np.vdot(a1, a1).real))
        self.norm_r_d = math.sqrt(target.norm2)

    def start_scale(self) -> float:
        """t* = sqrt(gamma) / ||Omega_0||_F, Omega_0 = Omega - (tr Omega / N) I,
        or 1 where Omega_0 = 0.  Pi_C is nonexpansive and invariant to shifts
        by I, so ||S(t) - R_D|| <= t ||Omega_0|| and S(t*) lies in the ball;
        where S(t*) has full support it is R_D + t* Omega_0, on the sphere."""
        tr = float(np.trace(self.a1).real)
        norm2 = self.norm_omega ** 2 - tr * tr / self.q.shape[0]
        return (math.sqrt(self.cfg.beampattern_tol) / math.sqrt(norm2)
                if norm2 > 0.0 else 1.0)

    def point(self, t: float) -> tuple[tuple, float]:
        """S(t) = Pi_C(R_D + t Omega) and its squared distance from R_D:
        the eigenvalues c + lam and the complement's c, projected onto the
        simplex together."""
        lam, vec = np.linalg.eigh(self.a0 + t * self.a1)
        v, v0 = _simplex_scaled(lam, self.cfg.power_budget, self.copies)
        return (vec, v, v0), self._dist2(vec, v, v0)

    def rank_factor(self, t: float, k: int) -> np.ndarray:
        """F (N x k, zero-padded) with F F^H = S_K(t) = Pi_{C_K}(R_D + t Omega),
        C_K = {S >= 0, tr S = P_T, rank S <= k}: the top k eigenpairs, their
        eigenvalues projected onto the simplex.  They lie in span Q: k <= r,
        and the complement's c is below every c + lam where A0 + t A1 >= 0,
        or absent (r = N)."""
        lam, vec = np.linalg.eigh(self.a0 + t * self.a1)
        m = min(k, lam.size)
        v, _ = _simplex_scaled(lam[-m:], self.cfg.power_budget)
        f = np.zeros((self.q.shape[0], k), dtype=complex)
        f[:, :m] = (self.q @ vec[:, -m:]) * np.sqrt(v)
        return f

    def _dist2(self, vec: np.ndarray, v: np.ndarray, v0: float) -> float:
        """||point - R_D||^2 = ||diag(v - c) - d g g^H||^2 + (N - r)(v0 - c)^2
        with g = V^H beta."""
        g = self.beta_conj @ vec          # conj(g), which gives the same norm
        m = g[:, np.newaxis] * (-self.d * g.conj())
        m.reshape(-1)[::g.size + 1] += v - self.c
        return float(np.vdot(m, m).real) + self.copies * (v0 - self.c) ** 2

    def trace(self, x: tuple) -> float:
        """tr(Omega S) of a point, sum_i v_i (V^H A1 V)_ii."""
        vec, v, _ = x
        half = vec * np.sqrt(v)
        return float(np.vdot(half, self.a1 @ half).real)

    def dense(self, x: tuple) -> np.ndarray:
        """A point as an N x N matrix, U diag(v - v0) U^H + v0 I, U = Q V."""
        vec, v, v0 = x
        u = self.q @ vec
        s = (u * (v - v0)) @ u.conj().T
        s.flat[::s.shape[0] + 1] += v0
        return hermitize(s)

    def _error(self, t: float) -> float:
        """e = 4 N eps (||R_D|| + t ||Omega||), the rounding of a computed S(t)."""
        return self.err * (self.norm_r_d + t * self.norm_omega)

    def slack(self, t: float, dist2: float) -> float:
        """Rounding allowance of a computed d(t): e^2 + 2 e sqrt(d) for the
        error e of S(t), plus 4 N eps (gamma + d) for evaluating it, as in
        ``dual_bound``."""
        e = self._error(t)
        return (e * (e + 2.0 * math.sqrt(dist2))
                + self.err * (self.cfg.beampattern_tol + dist2))

    def dual_bound(self, t: float, x: tuple, dist2: float) -> float:
        """Upper bound on max tr(S Omega) over the feasible covariance set,
        from the point S(t) = x and d(t) at a scale t > 0.

        The Lagrangian with multiplier 1/(2t) on the ball is, after
        completing the square, maximized over C = {S >= 0, tr S = P_T} by
        S(t) = Pi_C(R_D + t Omega); its value
        tr(Omega S(t)) + (gamma - d(t)) / (2t) bounds the optimum by weak
        duality.  The bound adds an allowance for rounding: for the error e
        of the computed S(t), the Lagrangian value drops by up to about
        e^2 / (2t) plus e ||Omega||, and evaluating it adds 4 N eps
        ((gamma + d) / (2t) + P_T ||Omega||).  The allowance is near 1e-14
        relative for the scenes of the experiments, and dominates only when
        gamma nears the rounding level of the distance.
        """
        err, e, gamma = self.err, self._error(t), self.cfg.beampattern_tol
        return (self.trace(x) + (gamma - dist2) / (2.0 * t)
                + (e * e + err * (gamma + dist2)) / (2.0 * t)
                + (e + err * self.cfg.power_budget) * self.norm_omega)


def _kkt_root(point, gamma: float, lo: KktPoint, hi: KktPoint, slack,
              floor: float = 0.0) -> tuple[KktPoint, KktPoint]:
    """Find where the nondecreasing d(t) crosses gamma by Chandrupatla's
    bracketing method (Adv. Eng. Softw. 28, 1997), ``point(t)`` giving
    (x, d(t)), x's squared distance from R_D.  The ends are tested points,
    lo inside the ball (d <= gamma) and hi outside.  Each step
    tries inverse quadratic interpolation through both ends and the end
    dropped last, where Chandrupatla's test finds d monotone enough for it,
    else the midpoint, and keeps the trial half the stopping width inside
    either end, so the bracket closes from both sides.  The search stops at
    a width of 1e-13 * t_hi, or ``floor`` if wider; the final (lo, hi).  It
    also stops once d at both ends is within ``slack(t, d)`` of gamma (the
    rounding allowance ``KktForm.slack``; where gamma nears the rounding
    level of the distance, d is rounding noise), and at adjacent floats.
    """
    def settled(end):
        return abs(end.dist2 - gamma) <= slack(end.t, end.dist2)

    a, b, c = hi, lo, None     # a: the end tested last; c: the end dropped last
    while (hi.t - lo.t > (tol := max(_KKT_REL_WIDTH * hi.t, floor))
           and not (settled(lo) and settled(hi))):
        fa, fb = a.dist2 - gamma, b.dist2 - gamma
        if c is None:
            step = fa / (fa - fb)    # a first step by linear interpolation
        else:
            ta, tb, tc, fc = a.t, b.t, c.t, c.dist2 - gamma
            xi, ph = (ta - tb) / (tc - tb), (fa - fb) / (fc - fb)
            step = 0.5
            if ph * ph < xi and (1.0 - ph) ** 2 < 1.0 - xi:
                step = (fa / (fb - fa) * fc / (fb - fc) + (tc - ta) / (tb - ta)
                        * fa / (fc - fa) * fb / (fc - fb))
        margin = 0.5 * tol / (hi.t - lo.t)
        t = a.t + min(max(step, margin), 1.0 - margin) * (b.t - a.t)
        if not lo.t < t < hi.t:
            break
        tested = KktPoint(t, *point(t))
        if (tested.dist2 > gamma) == (a.dist2 > gamma):
            c = a
        else:
            b, c = a, b
        a = tested
        if tested.dist2 > gamma:
            hi = tested
        else:
            lo = tested
    return lo, hi


def dykstra_project(m: np.ndarray, cfg: SceneConfig) -> np.ndarray:
    """Project onto {PSD} n {tr = P_T} n {Frobenius ball around R_D}, R_D
    the scene's ``default_beampattern_target``.

    By KKT the projection of M is Pi_C(R_D + s (M - R_D)) with s = 1/(1 + mu),
    mu the ball's multiplier: s = 1 if that point lies in the ball, else the
    root search of ``solve_relaxed`` finds s on the ``KktForm`` of
    M - R_D = U diag(w) U^H, as the rows U^H with the signed weights w.
    Nothing in the library calls it; it is kept for the tracer, under the
    name of the Dykstra iteration it replaced.
    """
    r_d, gamma = _target(cfg).r_d, cfg.beampattern_tol
    w, u = np.linalg.eigh(hermitize(m - r_d))
    form = KktForm(OmegaRows(u.conj().T, w), cfg)
    out = KktPoint(1.0, *form.point(1.0))
    if out.dist2 > gamma:
        _, out = _kkt_root(form.point, gamma, _AT_TARGET, out, form.slack)
    return project_ball(form.dense(out.x), r_d, gamma)


def slack_bound(lam_max: float, norm_omega: float, cfg: SceneConfig) -> float:
    """Certified upper bound P_T lambda_max(Omega) + 4 N eps P_T ||Omega||_F.

    P_T lambda_max(Omega) is the optimum of tr(S Omega) over C = {S >= 0,
    tr S = P_T}, which contains the feasible set; the allowance covers the
    rounding of the computed eigenvalue and of a computed tr(S Omega) or
    precoder objective, as in ``KktForm.dual_bound``.
    """
    return cfg.power_budget * (lam_max + _target(cfg).err * norm_omega)


def slack_distance(top: np.ndarray, cfg: SceneConfig) -> tuple[float, float]:
    """(||P_T u u^H - R_D||_F^2, its rounding band) for a unit vector u, in
    O(N) from b^H u.

    R_D = c I + d b b^H with ||b|| = 1, so the distance is
    P_T^2 ||u||^4 - 2 P_T (c ||u||^2 + d |b^H u|^2) + ||R_D||_F^2, taken
    at ||u|| = 1.  Each of its terms is at most (P_T + ||R_D||_F)^2, as is
    the distance.  The band bounds its distance from the dense sum of
    N^2 squares of P_T u u^H - R_D: that sum carries up to about N^2 eps
    of the distance, and the form here O(N) eps of (P_T + ||R_D||_F)^2,
    from ||u||^2 = 1 + O(N eps), b and R_D as rounded and its three terms.
    So band = 4 (N + 2)^2 eps (P_T + ||R_D||_F)^2; within it of gamma, the
    slack test takes the dense distance instead.
    """
    target, p_t = _target(cfg), cfg.power_budget
    bu = complex(np.vdot(target.b, top))
    return (p_t * p_t - 2.0 * p_t * (target.c + target.d * (
        bu.real * bu.real + bu.imag * bu.imag)) + target.norm2), target.band


def solve_relaxed(omega: OmegaRows, cfg: SceneConfig) -> RelaxedCovariance:
    """Maximize tr(S Omega) over the feasible covariance set.

    Omega is given as its ``OmegaRows`` X with weights d >= 0 (the
    effective channels, in a run); the top eigenpair comes from the r x r
    Gram matrix of the weighted rows, and no N x N Omega is formed.  If
    S = P_T u u^H (u the top eigenvector of Omega) lies inside the
    beampattern ball it is returned with its factor sqrt(P_T) u, and S
    itself is formed only when read (``RelaxedCovariance.slack``): it
    attains the bound P_T * lambda_max(Omega) of the ball-free problem, so
    it is exact, and ``dual_bound`` is ``slack_bound``.  The ball test
    takes the distance in O(N) from b^H u (``slack_distance``), and the
    dense ||S - R_D||_F^2 only within its rounding band of gamma, so it
    decides as the dense test does.  Otherwise the ball
    binds, and by the KKT conditions the optimum is
    S(t) = Pi_C(R_D + t Omega) at the t where ||S(t) - R_D||^2 = gamma.
    The search runs on the ``KktForm`` of R_D + t Omega, built once from
    the QR of [b, X^H], so each tested t costs one r x r ``eigh``, r <= K + 2
    from the channels.
    That distance is nondecreasing in t, so t is found by doubling from
    t* = sqrt(gamma) / ||Omega_0||_F (``KktForm.start_scale``, inside the
    ball) until S(t) leaves the ball, then closing that bracket with
    ``_kkt_root`` to a relative width of 1e-13.  The result is the ball
    projection of the outer end S(t_hi), formed densely once, a convex
    combination of two points of C, so it is feasible by construction;
    ``kkt_scale`` keeps t_hi, ``dual_bound`` the ``KktForm.dual_bound``
    there (from the S(t_hi) at hand), ``in_ball_scale`` keeps t_lo and
    ``form`` the form, for ``factor_precoder``.  A point S(t) inside the
    ball that, scaled to trace P_T, attains P_T * lambda_max(Omega) to
    1e-12 relative is returned so scaled, with in-ball scale t and
    ``slack_bound`` (a repeated top eigenvalue can leave S(t) inside the
    ball for every t; the t this takes is near 1e5, where the rounding of
    the simplex threshold puts tr S(t) off P_T by about eps t); SolverError
    if neither happens within a fixed number of doublings.  R_D is the
    scene's ``default_beampattern_target``, checked when a config loads
    (``validate_beampattern_target``), not here.
    """
    lam, top, norm_omega = omega.top_eigenpair()
    gamma = cfg.beampattern_tol
    bound = slack_bound(lam, norm_omega, cfg)
    slack = RelaxedCovariance.slack(top, cfg.power_budget, bound)
    dist2, band = slack_distance(top, cfg)
    if abs(dist2 - gamma) <= band:
        diff = slack.s - _target(cfg).r_d
        dist2 = float(np.vdot(diff, diff).real)
    if dist2 <= gamma:
        return slack
    form = KktForm(omega, cfg)
    attainable = cfg.power_budget * lam
    t = form.start_scale()
    lo = _AT_TARGET
    for _ in range(_KKT_MAX_DOUBLINGS):
        hi = KktPoint(t, *form.point(t))
        if hi.dist2 > gamma:
            break
        _, v, v0 = hi.x
        scale = cfg.power_budget / (float(v.sum()) + form.copies * v0)
        if form.trace(hi.x) * scale >= attainable - 1e-12 * abs(attainable):
            return RelaxedCovariance(scale * form.dense(hi.x),
                                     in_ball_scale=t, dual_bound=bound,
                                     form=form)
        lo, t = hi, 2.0 * t
    else:
        raise SolverError(
            f"KKT search: S(t) stayed inside the beampattern ball below its "
            f"optimum after {_KKT_MAX_DOUBLINGS} doublings of t")
    lo, hi = _kkt_root(form.point, gamma, lo, hi, form.slack)
    return RelaxedCovariance(
        project_ball(form.dense(hi.x), _target(cfg).r_d, gamma),
        kkt_scale=hi.t, in_ball_scale=lo.t, dual_bound=form.dual_bound(*hi),
        form=form)


def relaxed_objective(s: RelaxedCovariance, omega: np.ndarray) -> float:
    """tr(S Omega), the relaxation bound on the precoder objective."""
    return float(np.real(np.vdot(omega, s.s)))


def precoder_objective(p: Precoder, omega: np.ndarray) -> float:
    """tr(P P^H Omega) for a concrete precoder."""
    return float(np.real(np.vdot(p.p, omega @ p.p)))


def _distance2(f: np.ndarray, r_d: np.ndarray) -> float:
    """||F F^H - R_D||^2, formed densely."""
    return float(np.sum(np.abs(f @ f.conj().T - r_d) ** 2))


def factor_precoder(s: RelaxedCovariance, cfg: SceneConfig) -> Precoder:
    """Recover a precoder of at most K = ``cfg.n_users`` columns, with no
    draws: N x K' with 1 <= K' <= min(K, N) and no zero column (``Precoder``
    drops them), power P_T.

    S's exact one-column factor (slack ball), rescaled to the power
    budget, is the precoder; its Gram matrix is S, which passed the ball
    test, up to rounding.  Otherwise the precoder is the factor of
    S_K(t) = Pi_{C_K}(R_D + t Omega), C_K = {S >= 0, tr S = P_T,
    rank S <= K}, at the largest t tested inside the ball: S's in-ball
    scale t_in, where S_K = S if rank S(t_in) <= K, else the root
    search of ``solve_relaxed`` on [0, t_in], to a width of 1e-13 t_in.
    (S_K(t) minimizes ||S - R_D||^2 - 2t tr(Omega S) over C_K, so both terms
    are nondecreasing in t.)  The search runs on the ``KktForm`` that
    ``solve_relaxed`` set with the in-ball scale (``KktForm.rank_factor``,
    one r x r ``eigh``), so Omega is not passed again, and tests each
    factor F by the dense ||F F^H - R_D||^2, so the precoder returned lies
    inside the ball as computed.  S_K(0), the nearest rank-K covariance
    to R_D (``validate_beampattern_target``, formed once per scene and
    read only after the test at t_in; ConfigError if it lies outside), is
    the search's t = 0 end, and the answer when S has neither a factor nor
    an in-ball scale, where it lies on the sphere (a search from there
    picks among R_D's tied eigenvectors by rounding), and where no t > 0
    tests inside.  R_D is the scene's ``default_beampattern_target``.
    """
    gamma, k = cfg.beampattern_tol, cfg.n_users
    if s.factor is not None:
        f = s.factor
        return Precoder(f * math.sqrt(cfg.power_budget
                                      / float(np.vdot(f, f).real)))

    t_in = s.in_ball_scale or 0.0
    if t_in > 0.0:
        form, r_d = s.form, _target(cfg).r_d

        def point(t):
            f = form.rank_factor(t, k)
            return f, _distance2(f, r_d)

        hi = KktPoint(t_in, *point(t_in))
        if hi.dist2 <= gamma:
            return Precoder(hi.x)
    lo = validate_beampattern_target(cfg)
    # on the sphere, S_K(0) is kept: nearer t, d_K(t) is gamma up to
    # rounding, and the top K of R_D's tied eigenvalues are picked by it
    if t_in > 0.0 and lo.dist2 < gamma:
        lo, _ = _kkt_root(point, gamma, lo, hi, form.slack,
                          _KKT_REL_WIDTH * t_in)
    return Precoder(lo.x)
