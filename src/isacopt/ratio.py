"""Approximation-ratio study: Gaussian randomization against the
unit-diagonal relaxation.

The paper's closed-form phase update is the low-complexity alternative to
a semidefinite relaxation; this study measures that trade.  At the
precoder of an alternating run, the communication form U3 = cc Psi Psi^H
of the phase problem is the matrix A of the unit-modulus problem
max x^H A x, and it travels as its m rows Psi^H with their weights, each
> 0 (``build_quadratic_terms``, an ``objective.OmegaRows``; m = K K', 5 on
the shipped scenes; ``_require_psd_rows``).  Its relaxation max tr(A R) over
{R >= 0, diag(R) = 1} is solved by the same minorization step (a
generalized power method), run on coordinates in the eigenbasis of A at
its rank in guarded SQUAREM cycles (``squarem.squarem_ascent``, shared
with the phase step) until the fixed-point residual falls to 1e-10
(``solve_unit_diag_relaxation``); A's kept eigenpairs, those above
rounding level, come from a thin QR of the rows and one m x m ``eigh``
(``_form_eigenpairs``), and R* = Z^H Z travels as its factor Z
(``GramFactor``, r x L), which hands the study those eigenpairs and reads
as an L x L array only where a caller asks.  A dual certificate bounds
the relaxation (``unit_diag_dual_bound``): y = Re diag(A R*), floored,
times s = lambda_max(F^H Diag(1/y) F), A = F F^H, is a dual point,
Diag(s y) >= A, from one m x m ``eigvalsh``.  Draws and scores are formed
at the rank of R* and of A (``approximation_ratio_study``): R*'s
eigenpairs come from the r x r Gram matrix Z Z^H, and each sample count
takes 2 r n_g standard normals, r the number of eigenpairs of R* above
rounding level.  The candidates are ranked in single precision, each
score with a derived bound on its distance from the double-precision one
(``_Screen``), and only those the bounds cannot rule out are scored again
in double precision, so the winner is the one a double-precision pass
over every candidate picks.
Where r = 1 every candidate is one vector up to a phase, and no candidate
pass runs.  A trial decomposes no L x L matrix and forms no L x L array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import COUNT, ConfigError, SolverError, require_integer
from .objective import (OmegaRows, Precoder, comm_coefficient, gamma_n,
                        hermitize)
from .scene import ChannelSet, SceneConfig
from .squarem import squarem_ascent

# Candidate columns the ratio study forms at a time, which bounds its memory.
_RATIO_CHUNK = 512
# Fixed-point residual ||F(Z) - Z||_F / ||Z||_F at which the unit-diagonal
# ascent stops, and its cap on maps.
_UNIT_DIAG_TOL = 1e-10
_UNIT_DIAG_MAX_STEPS = 10_000
# Fraction of its largest entry below which the certificate floors the dual
# vector y on A's live coordinates.
_DUAL_FLOOR = 1e-3
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Unit roundoffs of single and double precision.
_U32 = 2.0 ** -24
_U64 = 2.0 ** -53


def _unit_diag_allowance(n: int) -> float:
    """How far a computed squared column norm of R* = Z^H Z, Z with n
    columns of at most n rows and unit-norm columns, may leave 1:
    gamma_{3n+6} at double precision.  Normalizing a column (|g_k|
    squared and summed, a square root, a divide) leaves ||z||^2 =
    1 + theta_{n+6}, and its squared norm read back, a sum of 2n
    nonnegative terms, adds theta_{2n}, as the diagonal of the dense Gram
    product does.  It is 1.3e-14 at n = 36."""
    return gamma_n(3 * n + 6, _U64)


@dataclass
class RandomizationReport:
    """Outcome of one Gaussian-randomization batch.

    The ratio must be at most 1 exactly: the reported objective is at most
    the reference in floating point (``unit_diag_dual_bound`` covers the
    rounding of both), and a rounded quotient a / b with a <= b, b > 0, is
    at most 1, since rounding is monotone.
    """

    n_samples: int
    best_objective: float
    sdp_objective: float
    ratio: float

    def __post_init__(self):
        if not self.ratio <= 1.0:
            raise SolverError(
                f"approximation ratio {self.ratio} exceeds 1 or is NaN: the "
                f"reference objective is not an upper bound")


def u3_rank_bound(n_users: int, n_tx: int) -> int:
    """K min(K, N), for K = ``n_users`` and N = ``n_tx``: the most rows of
    U3's factor Psi^H (``build_quadratic_terms``), one per user and
    nonzero precoder column, of which a recovered precoder has at most
    min(K, N) (``factor_precoder``); and so a bound on U3's rank."""
    return n_users * min(n_users, n_tx)


def study_bytes(l: int, n_g: int, n_users: int, n_tx: int) -> int:
    """An upper bound on the bytes one ratio trial holds at its peak
    beyond its channels, on a surface of L elements with sample counts up
    to n_g, counted from shapes, not measured: the candidate
    pass, one L x ``_RATIO_CHUNK`` complex candidate block with its
    magnitudes (the double-precision ranking; the single-precision
    screen's 2L x ``_RATIO_CHUNK`` block and its squares take less) and
    per sample the draw block's 2r float64 rows, their float32 copy and
    eight float64 per-candidate values; and at rank, eight complex arrays
    of r x L at a time: A's rows, R*'s factor and the basis E, with the
    relaxation's SQUAREM points and the certificate's products (it takes
    O(L m), one m x m ``eigvalsh`` of the scaled dual, and runs before the
    pass).

    r, the rank of A = U3 and of R*, is at most min(L, ``u3_rank_bound``)
    = min(L, K min(K, N)), and R* = Z^H Z with Z at the rank of U3 (a zero
    column of A adds one row, and drawn channels give none).  Measured as
    the growth of a fresh process's peak resident set over one trial of
    ``configs/ratio.json`` at L = 512, 1024 and 1536 (one BLAS thread,
    numpy 2.4.6, OpenBLAS 0.3.31, x86-64), where the count is 14.6, 22.5
    and 30.4 MB: 5.8, 15.1 and 22.4 MB.  The count is 2.5 times the
    growth at L = 512 and 1.5 times at L = 1024 because it takes r at its
    bound, K^2 = 25 there, where the shipped trials' R* has rank 1 to 3:
    of the 14.6 MB at L = 512, the per-sample term is 6.6 MB at
    n_g = 10 000."""
    rank = min(l, u3_rank_bound(n_users, n_tx))
    return (24 * l * _RATIO_CHUNK + (24 * rank + 64) * n_g
            + 8 * 16 * rank * l)


def build_quadratic_terms(p: Precoder, ch: ChannelSet, cfg: SceneConfig
                          ) -> tuple[OmegaRows, np.ndarray]:
    """U3 = cc Psi Psi^H (Hermitian PSD) as its ``OmegaRows``, and the
    linear coefficient mu = diag(U4) of the communication terms.

    Psi has one column conj(h_k o gp_j) per user k and nonzero precoder
    column j (``Precoder.nonzero_columns``), L x K K', so U3 is the rows
    X = Psi^H, row k K' + j = h_k o gp_j, each of weight cc; no L x L U3
    is formed.  mu is the row sums of cc (GP (FP)^H) o H^T, O(L K K_u),
    so the L x L U4 = cc GP (FP)^H H is not formed either.  The solver
    forms neither: it takes Psi^T as ``SurrogateFactors.rows[2:]``, and
    the products C P give U3 theta + mu*.
    """
    cc = comm_coefficient(cfg)
    p_nz = p.nonzero_columns()
    gp = ch.g @ p_nz
    (k, l), kp = ch.h.shape, gp.shape[1]
    rows = (ch.h[:, np.newaxis] * gp.T).reshape(k * kp, l)
    mu = cc * np.sum((gp @ (ch.f @ p_nz).conj().T) * ch.h.T, axis=1)
    return OmegaRows(rows, np.full(k * kp, cc)), mu


class GramFactor:
    """R = Z^H Z held as its factor Z (r x L), as the unit-diagonal
    relaxation returns R*: Z has unit-norm columns, one row per eigenpair
    of A it kept and one unit row e_i^T per fixed coordinate i.

    It reads as the L x L array Z^H Z, formed (and symmetrized) on each
    read: ``np.asarray``, ``np.diagonal``, ``np.linalg.eigvalsh`` and
    ``R + M`` for an array M all take it.  The ratio study reads Z alone.
    The relaxation hands on the kept eigenpairs (w, E^H) of the A it
    solved, ``form`` (``_form_eigenpairs``), which the study takes for that
    same object instead of decomposing it again.
    """

    def __init__(self, z: np.ndarray, form: OmegaRows | None = None,
                 pairs: tuple[np.ndarray, np.ndarray] | None = None):
        self.z, self.form, self.pairs = z, form, pairs
        self.shape = (z.shape[1], z.shape[1])

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("R = Z^H Z is formed from its factor: no view")
        r = hermitize(self.z.conj().T @ self.z)
        return r if dtype is None else r.astype(dtype, copy=False)


def unit_diag_dual_bound(a: OmegaRows, r_star: GramFactor) -> float:
    """Certified upper bound on max tr(A R) over {R >= 0, diag(R) = 1}.

    Any v with Diag(v) >= A gives the bound sum(v) by weak duality
    (tr(A R) <= tr(Diag(v) R) = sum(v) on the feasible set).  A =
    X^H diag(d) X is given by its m rows X with weights d > 0
    (``_require_psd_rows``), so A = F F^H with F = (sqrt(d) o X)^H
    (L x m), and for y > 0 Diag(s y) - F F^H is PSD exactly when
    I - F^H Diag(1 / (s y)) F is (the inertia of the Schur complements of
    [[Diag(s y), F], [F^H, I]]; Haynsworth, Linear Algebra Appl. 1,
    1968), that is when s >= lambda_max(K), K = F^H Diag(1/y) F (m x m).
    So v = s y with s = lambda_max(K) certifies, from one ``eigvalsh``
    (``_scaled_dual``, which also bounds its rounding).  y is
    Re diag(A R), the column sums of d o conj(X) o ((X Z^H) Z) for
    R = Z^H Z, O(L m r): at a near-optimal R it is near the optimal dual,
    and s y near it too, so the bound is near tr(A R).  A zero column i of
    A gives y_i = 0 and a zero row and column of Diag(y) - A, which add
    nothing, so only the other (live) coordinates enter.  There y is
    divided by its largest entry and floored at ``_DUAL_FLOOR``, which
    only rescales the certificate and keeps every y_i > 0; where no
    y_i > 0 (tr(A R) = 0, far from the optimum) y = 1.  The bound takes
    the smaller of that certificate and the one at y = 1, L lambda_max(A),
    which caps it where y is rounding noise (scaled up, noise at A R = 0
    gave 321 L lambda_max(A)).  F enters times the power of two that puts
    its largest |entry| in [1/2, 1), so nothing in K over- or underflows,
    and the bound is scaled back exactly where it is a normal float.

    The bound adds gamma_{L+3} of itself, which covers the sum of y, the
    addition of s's allowance, the product and the last two additions,
    and 4 gamma_{L+m+4} T, T = sum_a d_a ||x_a||_1^2, which bounds how far
    a value x^H A x of a unit-modulus x computed as sum_a d_a |x_a x|^2
    (``_form_value``) may lie above the exact one: each complex product
    x_a x is within sqrt(2) gamma_{L+2} ||x_a||_1 of its value (Higham,
    Section 3.6), its square within 3 gamma_{L+2} ||x_a||_1^2, and the
    weighted sum adds gamma_{m+2}.  So a ratio of such a value against the
    bound stays <= 1 in floating point.
    """
    _require_psd_rows(a)
    x, d, z = a.rows, a.weights, r_star.z
    n, m = z.shape[1], x.shape[0]
    y = (d @ (x.conj() * ((x @ z.conj().T) @ z))).real
    live = np.any(x != 0.0, axis=0)
    f_h, y = x[:, live] * np.sqrt(d)[:, np.newaxis], y[live]
    top = float(y.max())
    y = np.maximum(y / top, _DUAL_FLOOR) if top > 0.0 else np.ones_like(y)
    e = math.frexp(float(np.abs(f_h).max()))[1]
    f_h = np.ldexp(np.ascontiguousarray(f_h).view(float), -e).view(complex)
    core = math.inf
    for v in (y, np.ones_like(y)):
        w, allow = _scaled_dual(f_h, v)
        core = min(core, (w + allow) * float(np.sum(v)))
    core = float(np.ldexp(core, 2 * e))
    spread = float(d @ np.square(np.sum(np.abs(x), axis=1)))
    return core + (gamma_n(n + 3, _U64) * core
                   + 4.0 * gamma_n(n + m + 4, _U64) * spread)


def _scaled_dual(f_h: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(w, e): the computed lambda_max(K), K = F^H Diag(1/y) F with
    F = f_h^H (L x m), y > 0, and an allowance e with w + e >= the exact
    one, for the largest |entry| of f_h in [1/2, 1) and y <= 1, where
    lambda_max(K) >= 1/4:

        e = sqrt(2) gamma_{L+12} tr(K) + 4 (m + 1) eps ||K||_F + eps w.

    The products forming K (F from the rows and sqrt(d), the divisions by
    y, the sums of L terms) err entrywise by at most
    sqrt(2) gamma_{L+10} |F|^H Diag(1/y) |F|, whose Frobenius norm is at
    most its trace; ``eigvalsh`` adds its backward error, the second term;
    and eps w covers forming e and underflow in K."""
    n, m = f_h.shape[1], f_h.shape[0]
    k = (f_h / y) @ f_h.conj().T
    w = float(np.linalg.eigvalsh(k)[-1])
    return w, (math.sqrt(2.0) * gamma_n(n + 12, _U64) * float(k.trace().real)
               + 4.0 * (m + 1) * _EPS * math.sqrt(np.vdot(k, k).real)
               + _EPS * w)


def _require_psd_rows(a: OmegaRows) -> None:
    """ConfigError unless A = X^H diag(d) X is nonzero with every d_a > 0."""
    d = a.weights
    if not (np.any(d) and np.any(a.rows)):
        raise ConfigError("A is zero, as U3 is at beta = 1: no ratio")
    bad = np.flatnonzero(~(d > 0.0))
    if bad.size:
        raise ConfigError(f"weights[{bad[0]}] = {float(d[bad[0]])!r}: A must "
                          f"be PSD, every weight of its rows > 0")


def _form_value(a: OmegaRows, x: np.ndarray) -> float:
    """x^H A x = sum_a d_a |x_a x|^2 from the rows x_a of A."""
    p = a.rows @ x
    return float(a.weights @ (np.square(p.real) + np.square(p.imag)))


def approximation_ratio_study(a: OmegaRows, r_star: GramFactor,
                              n_g_grid, rng: np.random.Generator
                              ) -> list[RandomizationReport]:
    """Measure the randomization quality ratio against a certified bound.

    For each sample count, draw xi ~ CN(0, R*), map every draw to the
    unit-modulus vector xi / |xi| (an entry with xi = 0 becomes 1), and
    report the best quadratic-form value relative to the dual bound
    ``unit_diag_dual_bound(A, R*)``.  A is given by its rows (checked
    first, ``_require_psd_rows``) and R* = Z^H Z by its factor, whose
    columns must have unit norm to ``_unit_diag_allowance``.  Both enter
    at their rank (``_study_factors``): xi = U_r Lambda_r^(1/2) z over the
    r eigenpairs of R* above rounding level (lambda_j > L eps lambda_max),
    with z ~ CN(0, I_r) drawn as one 2r x n_g block of standard normals
    (real parts, then imaginary), so the generator advances by 2 r n_g
    normals per sample count; and candidates x are scored by
    sum_i mu_i |e_i^H x|^2 over the eigenpairs (mu_i, e_i) of A above
    rounding level, the first best one in draw order winning.  The scores
    are screened in single precision, and the candidates whose bounds
    overlap the best one are ranked again in double precision
    (``_best_candidate``).
    Where R* has rank one (r = 1, the relaxation tight) and no draw is
    zero, every candidate is u / |u| times the phase of its draw (R*'s unit
    diagonal makes |u_i| = 1), so all score alike up to rounding and the
    first wins without the pass; the draws are still taken.
    The reported value is the winner's x^H A x from the rows
    (``_form_value``), with x formed from its draw alone, an exact
    unit-modulus value, so the ratio cannot exceed 1 whatever R* is: the
    bound is at least the relaxation optimum, which is at least every
    unit-modulus value and at least tr(A) > 0, and it covers the rounding
    of that value.  Every sample count must be an integer >= 1, as
    ``n_g_grid`` of a config, and the whole grid is checked before the
    first draw.
    """
    _require_psd_rows(a)
    n_g_grid = list(n_g_grid)
    require_integer(SimpleNamespace(n_g_grid=n_g_grid), {"n_g_grid[]": COUNT})
    z = r_star.z
    norms = np.sum(np.square(z.real) + np.square(z.imag), axis=0)
    off = np.max(np.abs(norms - 1.0))
    if not off <= _unit_diag_allowance(z.shape[1]):
        raise ConfigError("reference covariance must have unit diagonal")
    sdp_obj = unit_diag_dual_bound(a, r_star)
    if not sdp_obj > 0.0:                          # A underflows
        raise SolverError(f"the relaxation bound is {sdp_obj!r}: no ratio")
    half, mu, e_h = _study_factors(a, r_star)
    screen = None
    reports = []
    for n_g in n_g_grid:
        draws = rng.standard_normal((2 * half.shape[1], int(n_g)))
        if half.shape[1] == 1 and draws.any(axis=0).all():
            best = 0
        else:
            if screen is None:
                screen = _Screen(half, mu, e_h)
            best = _best_candidate(screen, draws)
        best_x = _unit_modulus(half @ _complex_draws(draws, [best]))[:, 0]
        value = _form_value(a, best_x)
        reports.append(RandomizationReport(
            n_samples=int(n_g), best_objective=value, sdp_objective=sdp_obj,
            ratio=value / sdp_obj))
    return reports


def _study_factors(a: OmegaRows, r_star: GramFactor
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U_r Lambda_r^(1/2), mu, E^H): R*'s factor over its eigenpairs above
    rounding level, L eps times the largest (L the surface size), and A's
    kept eigenpairs, the eigenvalues mu_i with their eigenvectors as the
    rows of E^H.  R*'s come from the r' x r' Gram matrix Z Z^H =
    V diag(lambda) V^H of its factor: R* = Z^H Z has the eigenvalues
    lambda_j with eigenvectors Z^H v_j / sqrt(lambda_j), so its factor is
    Z^H V_r.  A's are the relaxation's (``GramFactor.pairs``) where R*
    solved A, else ``_form_eigenpairs``'s."""
    z = r_star.z
    w, v = np.linalg.eigh(z @ z.conj().T)
    # scale-free: the 1/sqrt(2) of CN(0, 1) cancels in xi / |xi|
    half = z.conj().T @ v[:, _above_rounding(w, z.shape[1])]
    return (half, *(r_star.pairs if r_star.form is a
                    else _form_eigenpairs(a)))


def _complex_draws(draws: np.ndarray, cols) -> np.ndarray:
    """The complex draws z of columns ``cols`` of the 2r x n block of real
    parts over imaginary parts."""
    r = draws.shape[0] // 2
    z = np.empty((r, len(cols)), dtype=complex)
    z.real = draws[:r, cols]
    z.imag = draws[r:, cols]
    return z


def _best_candidate(screen: "_Screen", draws: np.ndarray) -> int:
    """Index of the first best candidate of the draw block in double
    precision: the one a double-precision pass over every candidate picks.

    The screen's scores s_j lie within b_j of the double-precision ones, so
    a candidate with s_j + b_j below max_i (s_i - b_i) cannot be the best,
    and the rest (the survivors, in draw order) are scored again in double
    precision as x = ``_unit_modulus``(U_r Lambda_r^(1/2) z) and
    mu @ |E^H x|^2.  Only scores that tie to their own rounding can rank
    apart from that pass's: a BLAS product rounds a column by its place in
    the block, which differs between the survivors and the whole pass.
    """
    s, b = screen.scores(draws)
    survivors = np.flatnonzero(s + b >= np.max(s - b))
    best_score, best = None, None
    for k in range(0, survivors.size, _RATIO_CHUNK):
        cols = survivors[k:k + _RATIO_CHUNK]
        score = _double_scores(screen, draws, cols)
        i = int(np.argmax(score))
        if best is None or score[i] > best_score:     # first wins
            best_score, best = score[i], int(cols[i])
    return best


def _double_scores(screen: "_Screen", draws: np.ndarray, cols) -> np.ndarray:
    """mu @ |E^H x|^2 of the candidates x = ``_unit_modulus``(U_r
    Lambda_r^(1/2) z) of columns ``cols`` of the draw block, in double
    precision; the L x len(cols) block is freed on return, before the
    next chunk's is formed."""
    x = _unit_modulus(screen.half @ _complex_draws(draws, cols))
    proj = (screen.e_h @ x).view(float)              # Re, Im interleaved
    np.square(proj, out=proj)
    return screen.mu @ (proj[:, 0::2] + proj[:, 1::2])


class _Screen:
    """Single-precision scores of the ratio study's candidates, each with
    a bound on its distance from the double-precision score.

    With H = U_r Lambda_r^(1/2) (L x r, rows h_l) and z a draw, the
    double-precision pass scores S(x) = sum_i mu_i |e_i^H x|^2 at
    x = ``_unit_modulus``(H z).  The screen forms u = H z, x = u / |u| and
    P = E^H x on the real images [[Re M, -Im M], [Im M, Re M]] of H and
    E^H cast to float32, with mu scaled by a power of two to a largest
    |mu_i| in [1/2, 1) (so A and 2^k A screen alike); scores and bounds are
    in that scale.  With m kept eigenpairs of A, T = sum_i |mu_i| (tr|A|
    over them), e = max_i ||e_i||, gamma_n and gamma'_n Higham's bounds at
    single and double precision, and u-hat the computed float32 u, the
    score s_j of candidate j lies within

        b_j = c0 + 2 T e rho D_j + T e^2 D_j^2

    of the double-precision one, where

        D_j = 2 a ||z_j|| (sum_l ||h_l||^2 / |u-hat_l|^2)^(1/2)
              + (gamma_8 + gamma'_6) sqrt(L) + 2 (a1 ||z_j|| + a0)

    bounds ||x-hat - x||.  The steps:

    - u: the casts and a real product of length 2r put the float32 u-hat
      and the float64 u within a sum_k |h_lk| |z_k| <= a ||h_l|| ||z|| of
      each other, a = sqrt(2) (gamma_{2r+2} + gamma'_{2r+2}) (Higham,
      Section 3.1, and Section 3.6 for complex products).
    - Phase: |v/|v| - w/|w|| <= 2 |v - w| / |v| for any v, w != 0, and the
      normalizations add gamma_8 and gamma'_6, so
      |x-hat_l - x_l| <= 2 a ||h_l|| ||z|| / |u-hat_l| + gamma_8
      + gamma'_6; this holds where u_l = 0 and x_l = 1 too.  Summed in
      squares over l, that is D_j, and ||x-hat - x|| <= D_j.
    - Score of the perturbed candidate: S(x-hat) - S(x) =
      sum_i mu_i (|e_i^H x-hat|^2 - |e_i^H x|^2), at most
      T (2 e rho D_j + e^2 D_j^2) in size, with ||x||, ||x-hat|| <= rho / e
      and rho = e sqrt(L) (1 + gamma_8).
    - Rounding of each score: P is a real product of length 2L, within
      kappa = sqrt(2) gamma_{2L+2} rho of E^H x-hat per entry, and the
      weighted sum of squares adds gamma_{m+3}, so
      c0 >= T ((2 rho + kappa) kappa + gamma_{m+3} (rho + kappa)^2), at
      each precision, summed.

    Only one pass beyond the scores is needed: the reduction
    sum_l ||h_l||^2 / |u-hat_l|^2, taken from the reciprocals that
    normalize x.  Underflow adds at most 2^-149 per operation to the
    float32 results.  A candidate with some |u-hat_l| below 2^-49 is not
    screened, so the underflow in u-hat_l, at most sqrt(2) 2^-149
    (|h_l|_1 + |z|_1 + 2r), moves its phase by at most
    a1 (||z|| + max_l ||h_l|| + sqrt(2r)) summed in squares, with
    a1 = 2^-98 sqrt(2rL) and a0 = a1 (max_l ||h_l|| + sqrt(2r)); that of
    P and the scores is in kappa and in the (T + m) 2^-147 of c0.  The
    double-precision pass is not modeled with underflow.  c0 also holds
    2 gamma'_1 max |s_j|, ||z_j|| carries its rounding gamma'_{2r+2}, and
    every constant a factor 1 + gamma'_16: together they cover forming
    b_j and s_j +- b_j in double precision.  A candidate not screened (a
    non-finite score, or some |u-hat_l| too small, a zero draw among
    them) gets b_j = inf and survives.
    """

    def __init__(self, half: np.ndarray, mu: np.ndarray, e_h: np.ndarray):
        self.half, self.mu, self.e_h = half, mu, e_h
        l, r = half.shape
        m = mu.size
        mu_max = float(np.max(np.abs(mu), initial=0.0))
        self.scale = scale = math.ldexp(1.0, -math.frexp(mu_max)[1])
        self.hb = _real_image(half).astype(np.float32)
        self.eb = _real_image(e_h).astype(np.float32)
        self.mu32 = (mu * scale).astype(np.float32)
        hn2 = np.sum(np.abs(half) ** 2, axis=1)
        # with ||h_l||^2 floored at 2^-40 the reduction is at least
        # 2^-40 max_l 1/|u-hat_l|^2, so one at most 2^58 (screened) has
        # every |u-hat_l| >= 2^-49
        self.hn2 = np.maximum(hn2, 2.0 ** -40).astype(np.float32)
        self.red_cap = 2.0 ** 58
        # the reduction: hn2's cast, |u|^2 and its reciprocal, L products
        # and sums, relative
        self.red_factor = 1.0 / (1.0 - gamma_n(l + 5, _U32))
        t = float(np.sum(np.abs(mu))) * scale * (1.0 + gamma_n(m + 1, _U64))
        e = (1.0 + gamma_n(l + 2, _U64)) * math.sqrt(float(np.max(
            np.sum(np.abs(e_h) ** 2, axis=1), initial=0.0)))
        root_l = math.sqrt(l)
        rho = e * root_l * (1.0 + gamma_n(8, _U32))
        kappa32 = (math.sqrt(2.0) * gamma_n(2 * l + 2, _U32) * rho
                   + math.sqrt(2.0) * l * 2.0 ** -147)
        kappa64 = math.sqrt(2.0) * gamma_n(2 * l + 2, _U64) * rho
        rounding = sum(
            t * ((2.0 * rho + k) * k + gamma_n(m + 3, u) * (rho + k) ** 2)
            for k, u in ((kappa32, _U32), (kappa64, _U64)))
        top = t * (rho + kappa32) ** 2 * (1.0 + gamma_n(m + 3, _U32))
        slack = 1.0 + gamma_n(16, _U64)
        self.c0 = slack * (rounding + (t + m) * 2.0 ** -147
                           + 2.0 * gamma_n(1, _U64) * top)
        self.c1 = slack * 2.0 * t * e * rho
        self.c2 = slack * t * e * e
        norm = 1.0 + gamma_n(2 * r + 2, _U64)        # of ||z_j||
        a = math.sqrt(2.0) * (gamma_n(2 * r + 2, _U32)
                              + gamma_n(2 * r + 2, _U64))
        under = 2.0 ** -98 * math.sqrt(2.0 * r * l)    # a1
        h_max = math.sqrt(float(hn2.max(initial=0.0)))
        # D_j = (2 a sqrt(reduction) + 2 a1) ||z_j|| + 2 a0 + normalizing
        self.d_red = slack * 2.0 * a * norm
        self.d_z = slack * 2.0 * under * norm
        self.d_0 = slack * (2.0 * under * (h_max + math.sqrt(2.0 * r))
                            + (gamma_n(8, _U32) + gamma_n(6, _U64)) * root_l)

    def scores(self, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(s, b): the screened score of every candidate of the 2r x n
        draw block and its bound, as float64 in the screen's scale;
        b_j = inf for a candidate not screened."""
        n = draws.shape[1]
        s = np.empty(n, dtype=np.float32)
        red = np.empty(n, dtype=np.float32)
        z32 = draws.astype(np.float32)
        with np.errstate(all="ignore"):              # unscreened: b = inf
            for j in range(0, n, _RATIO_CHUNK):
                self._chunk(z32[:, j:j + _RATIO_CHUNK],
                            s[j:j + _RATIO_CHUNK], red[j:j + _RATIO_CHUNK])
            s = s.astype(float)
            red = red.astype(float)
            znorm = np.sqrt(np.einsum("ij,ij->j", draws, draws))
            d = ((self.d_red * np.sqrt(red * self.red_factor) + self.d_z)
                 * znorm + self.d_0)
            b = self.c0 + d * (self.c1 + self.c2 * d)
        unscreened = ~((red <= self.red_cap) & np.isfinite(s))
        if unscreened.any():
            s[unscreened] = 0.0
            b[unscreened] = np.inf
        return s, b


    def _chunk(self, z32: np.ndarray, s: np.ndarray, red: np.ndarray):
        """The float32 scores and reductions of one chunk of draws, into
        ``s`` and ``red``; its 2L x chunk block is freed on return, before
        the next chunk's is formed."""
        l, m = self.half.shape[0], self.mu.size
        u = self.hb @ z32                            # Re u over Im u
        sq = np.square(u)
        inv = np.add(sq[:l], sq[l:], out=sq[:l])    # |u|^2
        np.reciprocal(inv, out=inv)
        red[:] = self.hn2 @ inv
        np.sqrt(inv, out=inv)
        u[:l] *= inv
        u[l:] *= inv                                 # x = u / |u|
        p = self.eb @ u                              # E^H x
        np.square(p, out=p)
        s[:] = self.mu32 @ (p[:m] + p[m:])


def _real_image(m: np.ndarray) -> np.ndarray:
    """[[Re M, -Im M], [Im M, Re M]], which maps [Re v; Im v] to
    [Re Mv; Im Mv]."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


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


def _above_rounding(w: np.ndarray, n: int) -> np.ndarray:
    """Mask of the eigenvalues w above rounding level, n eps max(w), n
    the surface size L."""
    return w > n * _EPS * float(w.max(initial=0.0))


def _form_eigenpairs(a: OmegaRows) -> tuple[np.ndarray, np.ndarray]:
    """(w, E^H): A's kept eigenpairs, the r eigenvalues of A = X^H diag(d) X
    above rounding level (``_above_rounding``) with their eigenvectors as
    the rows of E^H (r x L), from its m rows X.

    The live coordinates are the columns of X that are not zero.  A thin
    QR of the rows, X^H = Q R on those coordinates, gives A =
    Q (R D R^H) Q^H, so one k x k ``eigh`` of R D R^H = V diag(w) V^H gives
    E = Q V, k = min(m, L_live): O(L m^2), where an ``eigh`` of A is
    O(L^3).  E is exactly zero off the live coordinates.
    """
    x, d = a.rows, a.weights
    live = np.flatnonzero(np.any(x != 0.0, axis=0))
    q, r = np.linalg.qr(x[:, live].conj().T)
    b = (r * d) @ r.conj().T
    # eigh at a largest diagonal entry in [1/2, 1), where LAPACK does not
    # rescale, so A and 2^k A give the same bits
    e = math.frexp(float(np.max(b.diagonal().real)))[1]
    w, v = np.linalg.eigh(np.ldexp(b.view(float), -e).view(complex))
    w = np.ldexp(w, e)
    e_h = np.zeros((q.shape[1], x.shape[1]), dtype=complex)
    e_h[:, live] = (q @ v).conj().T
    keep = _above_rounding(w, x.shape[1])
    return w[keep], e_h[keep]


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


def solve_unit_diag_relaxation(a: OmegaRows) -> GramFactor:
    """Maximize tr(A R) over {R >= 0, diag(R) = 1}, A PSD.

    The generalized power method (Journee et al., JMLR 2010) on R = V^H V
    with unit-norm columns, which is the minorization step of the phase
    update applied to this set, accelerated by guarded SQUAREM cycles
    (``squarem.squarem_ascent``).  tr(A R) = tr(V A V^H) is convex in V,
    so its linearization at V minorizes it; the map V <- V A with every
    column normalized maximizes that linearization in closed form, so it
    ascends monotonically, and a cycle keeps its extrapolated point only
    where that point beats two plain maps.  The iterate is PSD with unit
    diagonal by construction (where a column of V A or of the
    extrapolation is 0, V keeps its column).  From V = I, the first map,
    then cycles of three maps.  They stop once a map between kept iterates
    moves Z by at most 1e-10 of ||Z||_F (the fixed-point residual, which
    measures stationarity, as the dual certificate does; a gain in
    tr(A R) is second order in it and reaches rounding level first), or
    after a fixed number of maps.  Every rule is relative, and the maps
    take A's kept eigenvalues times the power of two that puts the largest
    in [1/2, 1), so no squared column norm over- or underflows and A and
    2^k A give the same bits; an A whose largest kept eigenvalue is below
    the smallest normal float raises SolverError.  Optimality is certified
    separately by ``unit_diag_dual_bound``.

    A is given by its rows (``OmegaRows``) with every weight > 0
    (``_require_psd_rows``), and the maps run at the rank of A.
    ``_form_eigenpairs`` gives A's kept eigenpairs from the QR of the rows
    and one m x m ``eigh``: A = E M E^H over its r eigenvalues above
    rounding level, L eps times the largest (r = 5 for the ratio study's
    A = U3).  After the first map every column of V lies in span(E), so
    V = E Z and a map is Z <- normalize_cols((Z E M) E^H) on the r x L
    coordinates, O(r^2 L) where V A is O(L^3); the product also gives
    tr(A R) at Z, and is normalized in place.  A coordinate whose column of
    A is zero keeps its e_i (Z's column is 0 there, and the factor gains
    the row e_i^T); E is exactly zero on such coordinates (an ``eigh`` of
    all of A leaves rounding noise there, which normalizing amplifies).
    R* = Z^H Z is returned as its factor (``GramFactor``); no L x L array
    is formed.  The plain map, run alone, moves R at rounding level against
    the dense V <- V A; both are test oracles (``tests/reference.py``).
    """
    _require_psd_rows(a)
    n = a.rows.shape[1]
    m, e_h = pairs = _form_eigenpairs(a)
    if m.size:             # the maps at the largest eigenvalue in [1/2, 1)
        top = float(m.max())
        if top < _TINY:
            raise SolverError(f"A's largest eigenvalue {top!r} is below the "
                              f"smallest normal float: A underflows")
        m = m * math.ldexp(1.0, -math.frexp(top)[1])
    g = m[:, np.newaxis] * e_h             # V A at V = I, in the basis E
    z = _unit_columns(g, np.zeros_like(g))
    fixed = ~z.any(axis=0)                 # V keeps e_i there, Z's column 0
    em = e_h.conj().T * m                  # E M

    def point(z):
        g = (z @ em) @ e_h
        return z, float(np.vdot(z, g).real), g   # tr(A Z^H Z)

    # ||Z||_F^2 is the number of moving columns
    stop2 = _UNIT_DIAG_TOL ** 2 * np.count_nonzero(~fixed)

    def converged(prev, new):
        diff = new[0] - prev[0]
        return np.vdot(diff, diff).real <= stop2

    (z, _, _), _ = squarem_ascent(
        point(z), lambda p: point(_unit_columns(p[2], p[0])),
        lambda x, near: point(_unit_columns(x, near[0])), converged,
        _UNIT_DIAG_MAX_STEPS - 1)
    unit = np.zeros((np.count_nonzero(fixed), n), dtype=complex)
    unit[np.arange(unit.shape[0]), np.flatnonzero(fixed)] = 1.0
    return GramFactor(np.concatenate((z, unit)), a, pairs)
