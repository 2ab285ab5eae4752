"""Reference implementations, used only by tests.

Earlier, slower or dense forms of library routines, kept as oracles for
the ones that replaced them, and thin wrappers that only tests call.
"""

import math
from dataclasses import dataclass

import numpy as np

from isacopt.errors import ConfigError
from isacopt.irs import (SurrogateFactors, _lifted_kernels, ascent_anchor,
                         build_quadratic_terms, build_quartic_surrogate,
                         linear_surrogate_vectors)
from isacopt.objective import (IrsPhase, Precoder, _check_dims,
                               comm_coefficient, hermitize,
                               quartic_coefficient)
from isacopt.precoder import RandomizationReport, unit_diag_dual_bound
from isacopt.scene import ChannelSet, SceneConfig, complex_normal


@dataclass
class ObjectiveBreakdown:
    """Objective split by polynomial order in the surface phases."""

    g0: float
    g1: float
    g2: float
    g4: float
    total: float


def decompose_objective(p: Precoder, theta: IrsPhase, ch: ChannelSet,
                        cfg: SceneConfig) -> ObjectiveBreakdown:
    """Split the objective into g0 + g1 + g2 + g4 by order in theta.

    g0 collects the direct-link power, g1 the conjugate pair of direct/
    reflected cross terms (real by pairing), g2 the reflected downlink
    power and g4 the round-trip radar term.
    """
    _check_dims(theta.theta, ch)
    cc = comm_coefficient(cfg)
    fp = ch.f @ p.p
    g0 = cc * float(np.sum(np.abs(fp) ** 2))

    htg = (ch.h * theta.theta[np.newaxis, :]) @ ch.g
    htgp = htg @ p.p
    g1 = cc * 2.0 * float(np.real(np.vdot(fp, htgp)))
    g2 = cc * float(np.sum(np.abs(htgp) ** 2))

    b = theta.theta * ch.steer
    q_w = float(np.sum(np.abs(ch.g.T @ b) ** 2))          # b^H (G* G^T) b
    q_v = float(np.sum(np.abs(p.p.conj().T @ (ch.g.conj().T @ b.conj())) ** 2))
    g4 = quartic_coefficient(cfg) * q_w * q_v

    return ObjectiveBreakdown(g0=g0, g1=g1, g2=g2, g4=g4, total=g0 + g1 + g2 + g4)


def quartic_kernels_reference(x: np.ndarray, v: np.ndarray, w: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Kernels of ``quartic_kernels`` via the explicit Kronecker operator.

    The L^4 memory footprint restricts it to L <= 8.
    """
    if not (x.shape == v.shape == w.shape) or x.shape[0] != x.shape[1]:
        raise ConfigError("kernel factors must be square and equally sized")
    l = x.shape[0]
    if l > 8:
        raise ConfigError(f"explicit Kronecker path is limited to L <= 8, got L={l}")
    q = np.kron(v, w)
    x_vec = x.ravel(order="F")
    y = (q @ x_vec).reshape((l, l), order="F")
    z = (q.T @ x_vec.conj()).reshape((l, l), order="F")
    return y, z


def quartic_surrogate_constant(theta_t: IrsPhase, p: Precoder, ch: ChannelSet,
                               cfg: SceneConfig) -> float:
    """Dropped constant c * vec(X_t)^H Q vec(X_t) of the quartic surrogate;
    equals g4(theta_t)."""
    x_t, y, _ = _lifted_kernels(theta_t, p, ch)
    return quartic_coefficient(cfg) * float(np.real(np.vdot(x_t, y)))


def dense_linearization(theta_t: IrsPhase, p: Precoder, ch: ChannelSet,
                        cfg: SceneConfig, safeguard: bool = True
                        ) -> tuple[np.ndarray, np.ndarray, float]:
    """(nu, eta, rho) at theta_t from the dense L x L surrogate pieces.

    Reference for ``SurrogateFactors.linearize`` (``safeguard`` set: the
    quartic surrogate symmetrized and anchored by ``ascent_anchor`` on the
    full 2L x 2L form, then linearized) and for ``plain_linearization``
    (unset).
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


def plain_linearization(factors: SurrogateFactors, theta: np.ndarray
                        ) -> np.ndarray:
    """The paper's plain linearization at theta, from the unsymmetrized
    U1 = c p q^T with no anchor: nu = 2 c q_v q + U3 theta + mu*.  It is
    not ascent-safe on radar-weighted scenes."""
    _, qv, q_v, _ = factors.quartic(theta)
    return 2.0 * factors.c * q_v * qv + factors.comm(theta)


def anchored_surrogate_value(factors: SurrogateFactors, theta: np.ndarray,
                             pv: np.ndarray, qv: np.ndarray,
                             rho: float) -> float:
    """Quadratic surrogate with anchor rho, expanded where (p, q) were
    taken, at theta, from the factors."""
    quartic = 2.0 * factors.c * np.real(np.vdot(theta, pv)
                                        * np.vdot(theta, qv))
    coords = factors.psi.conj().T @ theta
    quad = np.vdot(coords, coords).real + rho * np.vdot(theta, theta).real
    lin = 2.0 * np.real(theta @ factors.mu)
    return float(quartic + quad + lin)


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


def objective_snapshot(p: Precoder, theta: IrsPhase, ch: ChannelSet,
                       cfg: SceneConfig) -> tuple[float, float, float]:
    """(weighted objective, radar SNR, communication SNR) at (P, theta),
    from the same kernel that scores the phase solvers' iterates."""
    factors = SurrogateFactors(p, ch, cfg)
    return factors.value(theta.theta, factors.quartic(theta.theta))


def project_trace(m: np.ndarray, target: float) -> np.ndarray:
    """Frobenius projection onto the hyperplane tr(M) = target
    (``project_spectrahedron`` fuses it with the cone)."""
    n = m.shape[0]
    return m + ((target - np.trace(m)) / n) * np.eye(n)


def feasibility_residuals(cfg: SceneConfig, r_d: np.ndarray):
    """Scaled violations of the cone, trace and ball constraints, as three
    callables."""
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


def dense_power_method(a: np.ndarray, max_steps: int = 10_000,
                       tol: float = 1e-12) -> np.ndarray:
    """Reference for ``solve_unit_diag_relaxation``: the same generalized
    power method run densely, V <- V B on the L x L iterate with
    B = A + max(0, -lambda_min(A)) I, columns normalized (where a column
    of V B is zero, V keeps its column), from V = I until the objective
    gains at most ``tol`` relative or after ``max_steps`` steps."""
    a = hermitize(a)
    n = a.shape[0]
    shift = max(0.0, -float(np.linalg.eigvalsh(a)[0]))
    b = a + shift * np.eye(n)
    v = np.eye(n, dtype=complex)
    f = None
    for _ in range(max_steps):
        g = v @ b
        f_new = float(np.real(np.vdot(v, g))) - n * shift   # tr(A V^H V)
        if f is not None and abs(f_new - f) <= tol * max(1.0, abs(f)):
            break
        f = f_new
        norms = np.linalg.norm(g, axis=0)
        np.divide(g, norms, out=v, where=norms > 1e-300)
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
