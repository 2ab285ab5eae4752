"""Approximation-ratio study: Gaussian randomization against the
unit-diagonal relaxation.

The paper's closed-form phase update is the low-complexity alternative to
a semidefinite relaxation; this study measures that trade.  At the
precoder of an alternating run, the communication form U3 of the phase
problem (``build_quadratic_terms``, dense, Hermitian PSD) is the matrix A
of the unit-modulus problem max x^H A x.  Its unit-diagonal relaxation
max tr(A R) over {R >= 0, diag(R) = 1} is solved by the same
minorization step (a generalized power method), run on coordinates in
the eigenbasis of A at its rank in guarded SQUAREM cycles
(``squarem.squarem_ascent``, shared with the phase step) until the
fixed-point residual falls to 1e-10 (``solve_unit_diag_relaxation``).  A
dual certificate bounds the relaxation (``unit_diag_dual_bound``), and
draws and scores are formed at the rank of R* and of A
(``approximation_ratio_study``): each sample count takes 2 r n_g standard
normals, r the number of eigenpairs of R* above rounding level.  Where
r = 1 every candidate is one vector up to a phase, and no candidate pass
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError
from .objective import Precoder, comm_coefficient, hermitize
from .scene import ChannelSet, SceneConfig
from .squarem import squarem_ascent

# Candidate columns the ratio study forms at a time, which bounds its memory.
_RATIO_CHUNK = 512
# Fixed-point residual ||F(Z) - Z||_F / ||Z||_F at which the unit-diagonal
# ascent stops, and its cap on maps.
_UNIT_DIAG_TOL = 1e-10
_UNIT_DIAG_MAX_STEPS = 10_000
_EPS = float(np.finfo(float).eps)


@dataclass
class RandomizationReport:
    """Outcome of one Gaussian-randomization batch."""

    n_samples: int
    best_objective: float
    sdp_objective: float
    ratio: float

    def __post_init__(self):
        if not self.ratio <= 1.0 + 1e-9:
            raise SolverError(
                f"approximation ratio {self.ratio} exceeds 1 or is NaN: the "
                f"reference objective is not an upper bound")


def study_bytes(l: int) -> int:
    """Bytes one ratio trial holds at its peak beyond its channels, on a
    surface of L elements: 10 L x L complex arrays and two
    L x ``_RATIO_CHUNK`` candidate blocks.  Measured as the growth of a
    fresh process's peak resident set over one trial of
    ``configs/ratio.json``, LAPACK's workspace included: 9.3, 10.1 and 8.6
    L x L arrays' worth at L = 512, 1024 and 1536 (one BLAS thread, numpy
    2.4.6, OpenBLAS 0.3.31, x86-64)."""
    return 16 * l * (10 * l + 2 * _RATIO_CHUNK)


def build_quadratic_terms(p: Precoder, ch: ChannelSet, cfg: SceneConfig
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Dense quadratic form U3 (Hermitian PSD by the Schur product theorem)
    and linear coefficient mu = diag(U4) of the communication terms.

    The approximation-ratio study needs U3 as a matrix.  mu is the row
    sums of cc (GP (FP)^H) o H^T, O(L K K_u), so the L x L U4 =
    cc GP (FP)^H H is not formed.  The solver uses U3's factor Psi
    (``SurrogateFactors.rows``) and forms neither U3 nor mu: the products
    C P give U3 theta + mu*.
    """
    cc = comm_coefficient(cfg)
    gp = ch.g @ p.p
    m = gp @ gp.conj().T
    u3 = hermitize(cc * ((ch.h.conj().T @ ch.h) * m.T))
    mu = cc * np.sum((gp @ (ch.f @ p.p).conj().T) * ch.h.T, axis=1)
    return u3, mu


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
    rounding = (4.0 * (n + 1) * _EPS
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
    Where R* has rank one (r = 1, the relaxation tight) and no draw is
    zero, every candidate is u / |u| times the phase of its draw (R*'s unit
    diagonal makes |u_i| = 1), so all score alike up to rounding and the
    first wins without the pass; the draws are still taken.
    The reported value is the winner's dense x^H A x, an exact
    unit-modulus value, so the ratio cannot exceed 1 whatever R* is: the
    bound is at least the relaxation optimum, which is at least every
    unit-modulus value.
    """
    if not np.max(np.abs(np.diagonal(r_star) - 1.0)) <= 1e-6:
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
    tied = half.shape[1] == 1
    reports = []
    for n_g in n_g_grid:
        if n_g < 1:
            raise ConfigError(f"sample count must be >= 1, got {n_g}")
        z = np.empty((half.shape[1], int(n_g)), dtype=complex)
        z.real = rng.standard_normal(z.shape)
        z.imag = rng.standard_normal(z.shape)
        if tied and z.all():
            best_x = _unit_modulus(half @ z[:, :1])[:, 0]
        else:
            best_score, best_x = None, None
            for j in range(0, int(n_g), _RATIO_CHUNK):
                x = _unit_modulus(half @ z[:, j:j + _RATIO_CHUNK])
                proj = (e_h @ x).view(float)             # Re, Im interleaved
                np.square(proj, out=proj)
                score = mu @ (proj[:, 0::2] + proj[:, 1::2])
                i = int(np.argmax(score))
                if best_x is None or score[i] > best_score:   # first wins
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
    The masks run only where some entry is zero.
    """
    mag = np.abs(x)
    if mag.all():
        x *= np.reciprocal(mag, out=mag)
        return x
    zero = mag == 0.0
    mag[zero] = 1.0
    x *= np.reciprocal(mag, out=mag)
    x[zero] = 1.0
    return x


def _above_rounding(w: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues w above rounding level, L eps max(w)."""
    return w > w.size * _EPS * float(w.max(initial=0.0))


def _unit_columns(g: np.ndarray, near: np.ndarray) -> np.ndarray:
    """g with every column scaled to unit norm, in place; a zero column
    takes ``near``'s instead.  The norms come from |g|^2 summed down the
    columns, and the masked path runs only where a column is zero."""
    norms = np.abs(g)
    norms *= norms
    norms = norms.sum(axis=0)
    np.sqrt(norms, out=norms)
    if norms.all():
        g /= norms
        return g
    zero = norms == 0.0
    norms[zero] = 1.0
    g /= norms
    g[:, zero] = near[:, zero]
    return g


def solve_unit_diag_relaxation(a: np.ndarray) -> np.ndarray:
    """Maximize tr(A R) over {R >= 0, diag(R) = 1}.

    The generalized power method (Journee et al., JMLR 2010) on R = V^H V
    with unit-norm columns, which is the minorization step of the phase
    update applied to this set, accelerated by guarded SQUAREM cycles
    (``squarem.squarem_ascent``).  With B = A + sigma I, sigma =
    max(0, -lambda_min(A)), tr(A R) = tr(V B V^H) - L sigma on the set and
    tr(V B V^H) is convex in V, so its linearization at V minorizes it;
    the map V <- V B with every column normalized maximizes that
    linearization in closed form, so it ascends monotonically, and a cycle
    keeps its extrapolated point only where that point beats two plain
    maps.  The iterate is PSD with unit diagonal by construction (where a
    column of V B or of the extrapolation is 0, V keeps its column).  From
    V = I, the first map, then cycles of three maps.  They stop once a map
    between kept iterates moves Z by at most 1e-10 of ||Z||_F (the
    fixed-point residual, which measures stationarity, as the dual
    certificate does; a gain in tr(A R) is second order in it and reaches
    rounding level first), or after a fixed number of maps; every rule is
    relative, so A and 2^k A give the same bits.  Optimality is certified
    separately by ``unit_diag_dual_bound``.

    The maps run at the rank of B.  One ``eigh`` gives B = E M E^H over
    its r eigenvalues above rounding level (r = 5 for the ratio study's
    A = U3; r = L - 1 or so for an indefinite A).  After the first map
    every column of V lies in span(E), so V = E Z and a map is
    Z <- normalize_cols((Z E M) E^H) on the r x L coordinates, O(r^2 L)
    where V B is O(L^3); the product also gives tr(A R) at Z, and is
    normalized in place.  R = Z^H Z.  A coordinate whose column of A is
    zero keeps its e_i (Z's column is 0 there and R_ii = 1); the ``eigh``
    leaves such coordinates out, so E is exactly zero on them (an ``eigh``
    of all of A leaves rounding noise there, which normalizing amplifies).
    The plain map, run alone, moves R at rounding level against the dense
    V <- V B; both are test oracles (``tests/reference.py``).
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
    z = _unit_columns(g, np.zeros_like(g))
    fixed = ~z.any(axis=0)                 # V keeps e_i there, Z's column 0
    em = e_h.conj().T * m                  # E M
    offset = np.count_nonzero(~fixed) * shift

    def point(z):
        g = (z @ em) @ e_h
        return z, float(np.vdot(z, g).real) - offset, g   # tr(A Z^H Z)

    # ||Z||_F^2 is the number of moving columns
    stop2 = _UNIT_DIAG_TOL ** 2 * np.count_nonzero(~fixed)

    def converged(prev, new):
        diff = new[0] - prev[0]
        return np.vdot(diff, diff).real <= stop2

    (z, _, _), _ = squarem_ascent(
        point(z), lambda p: point(_unit_columns(p[2], p[0])),
        lambda x, near: point(_unit_columns(x, near[0])), converged,
        _UNIT_DIAG_MAX_STEPS - 1)
    r = z.conj().T @ z
    r[fixed, fixed] = 1.0
    return hermitize(r)
