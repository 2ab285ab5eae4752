"""Reference implementations, used only by tests.

Earlier, slower forms of library routines, kept as oracles for the ones
that replaced them.
"""

import numpy as np

from isacopt.objective import hermitize
from isacopt.precoder import RandomizationReport, unit_diag_dual_bound
from isacopt.scene import complex_normal


def mixing_method_relaxation(a: np.ndarray, max_sweeps: int = 1000,
                             tol: float = 1e-12) -> np.ndarray:
    """Maximize tr(A R) over {R >= 0, diag(R) = 1} by the mixing method.

    Reference for ``solve_unit_diag_relaxation``.  Row-by-row ascent on
    R = V^H V with unit-norm columns: the column update v_i <- c_i / ||c_i||
    with c_i = sum_{j != i} A_ij v_j maximizes the objective over that
    column alone, so sweeps are monotone.  Sweeps stop once the objective
    gains at most ``tol`` relative.
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


def dense_ratio_study(a: np.ndarray, r_star: np.ndarray, n_g_grid,
                      rng: np.random.Generator) -> list[RandomizationReport]:
    """Reference for ``approximation_ratio_study``: the same draws from
    ``rng`` (z ~ CN(0, I_r), r the number of eigenpairs of R* above
    L eps lambda_max), shaped by those eigenpairs and scored with the dense
    quadratic form of every candidate."""
    a = hermitize(a)
    sdp_obj = unit_diag_dual_bound(a, r_star)
    w, u = np.linalg.eigh(hermitize(r_star))
    keep = w > w.size * np.finfo(float).eps * w.max()
    half = u[:, keep] * np.sqrt(w[keep])
    reports = []
    for n_g in n_g_grid:
        xi = half @ complex_normal(rng, half.shape[1], int(n_g))
        mag = np.abs(xi)
        np.divide(xi, mag, out=xi, where=mag > 0.0)
        xi[mag == 0.0] = 1.0
        values = np.real(np.sum(xi.conj() * (a @ xi), axis=0))
        best = float(values.max())
        reports.append(RandomizationReport(
            n_samples=int(n_g), best_objective=best, sdp_objective=sdp_obj,
            ratio=best / sdp_obj))
    return reports
