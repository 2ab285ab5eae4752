"""Reference implementations, used only by tests.

Earlier, slower or dense forms of library routines, kept as oracles for
the ones that replaced them, and thin wrappers that only tests call.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from isacopt import irs, precoder, ratio
from isacopt.errors import ConfigError, MonotonicityError
from isacopt.irs import (InnerTrace, SurrogateFactors,
                         build_quartic_surrogate, irs_phase_update,
                         linear_surrogate_vectors)
from isacopt.objective import (ChannelConstants, IrsPhase, OmegaRows,
                               Precoder, _check_dims, _dense_channels,
                               comm_coefficient, hermitize,
                               quartic_coefficient, quartic_kernels)
from isacopt.precoder import _KKT_MAX_DOUBLINGS, _kkt_root, project_ball
from isacopt.ratio import (RandomizationReport, _above_rounding,
                           build_quadratic_terms, unit_diag_dual_bound)
from isacopt.scene import (TWO_PI, ChannelSet, SceneConfig, complex_normal,
                           random_phase_vector, ula_steering)


@dataclass
class ObjectiveBreakdown:
    """Objective split by polynomial order in the surface phases."""

    g0: float
    g1: float
    g2: float
    g4: float
    total: float


def effective_radar_channel(theta: IrsPhase, ch: ChannelSet,
                            cfg: SceneConfig) -> np.ndarray:
    """Round-trip radar channel alpha * G^T Theta a a^T Theta G (rank <= 1),
    as a dense N x N matrix; the run keeps only t = G^T (theta o a)
    (``EffectiveChannels.t``)."""
    _check_dims(theta.theta, ch)
    b = theta.theta * ch.steer
    t = ch.g.T @ b
    return cfg.alpha * np.outer(t, t)


def effective_comm_channel(theta: IrsPhase, ch: ChannelSet) -> np.ndarray:
    """Downlink channel F + H Theta G (``EffectiveChannels.comm``)."""
    _check_dims(theta.theta, ch)
    return ch.f + (ch.h * theta.theta[np.newaxis, :]) @ ch.g


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


def lifted_kernels(theta_t: IrsPhase, p: Precoder, ch: ChannelSet
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X_t = Theta_t R Theta_t and its kernels (Y, Z), as dense L x L, for
    V = (G P P^H G^H)^T and W = G* G^T (``build_quartic_surrogate``)."""
    gp, th = ch.g @ p.p, theta_t.theta
    x_t = (th[:, None] * np.outer(ch.steer, ch.steer)) * th[None, :]
    y, z = quartic_kernels(x_t, hermitize((gp @ gp.conj().T).T),
                           hermitize(ch.g.conj() @ ch.g.T))
    return x_t, y, z


def quartic_surrogate_constant(theta_t: IrsPhase, p: Precoder, ch: ChannelSet,
                               cfg: SceneConfig) -> float:
    """Dropped constant c * vec(X_t)^H Q vec(X_t) of the quartic surrogate;
    equals g4(theta_t)."""
    x_t, y, _ = lifted_kernels(theta_t, p, ch)
    return quartic_coefficient(cfg) * float(np.real(np.vdot(x_t, y)))


def dense_ascent_anchor(u1_sym: np.ndarray, u3: np.ndarray) -> float:
    """Reference for ``ascent_anchor``: the smallest rho >= 0 making the
    displacement form 2 Re{d^H U1s d*} + d^H U3 d + rho ||d||^2 convex,
    from its real representation assembled blockwise, rho =
    max(0, -lambda_min) with the same 1e-9 relative margin."""
    m = u3.shape[0]
    x2, y2 = 2.0 * u1_sym.real, 2.0 * u1_sym.imag
    h = np.empty((2 * m, 2 * m))
    np.add(x2, u3.real, out=h[:m, :m])
    np.subtract(y2, u3.imag, out=h[:m, m:])
    h[m:, :m] = h[:m, m:].T
    np.subtract(u3.real, x2, out=h[m:, m:])
    lam_min = float(np.linalg.eigvalsh(0.5 * (h + h.T))[0])
    return max(0.0, -lam_min) * (1.0 + 1e-9)


def dense_linearization(theta_t: IrsPhase, p: Precoder, ch: ChannelSet,
                        cfg: SceneConfig, safeguard: bool = True
                        ) -> tuple[np.ndarray, np.ndarray, float]:
    """(nu, eta, rho) at theta_t from the dense L x L surrogate pieces.

    Reference for ``SurrogateFactors.linearize`` (``safeguard`` set: the
    quartic surrogate symmetrized and anchored by ``dense_ascent_anchor``
    on the full 2L x 2L form, then linearized) and for
    ``plain_linearization`` (unset).
    """
    u1, u2 = build_quartic_surrogate(theta_t, p, ch, cfg)
    u3, mu = build_quadratic_terms(p, ch, cfg)
    rho = 0.0
    if safeguard:
        u1 = 0.5 * (u1 + u1.T)
        u2 = 0.5 * (u2 + u2.T)
        rho = dense_ascent_anchor(u1, u3)
        u3 = u3 + rho * np.eye(len(theta_t))
    nu, eta = linear_surrogate_vectors(theta_t, u1, u2, u3, mu)
    return nu, eta, rho


def products_at(factors: SurrogateFactors, theta: np.ndarray) -> tuple:
    """(channels, Y) of ``factors`` at phases theta: the effective channels
    and the products Y = W P_nz there."""
    channels, _, y = factors.at(IrsPhase(theta))
    return channels, y


def quartic_at(factors: SurrogateFactors, theta: np.ndarray) -> tuple:
    """The quartic factors (p, q, q_v, q_w) of ``factors`` at phases theta."""
    return factors.quartic(*products_at(factors, theta))


def gradient_at(factors: SurrogateFactors, theta: np.ndarray) -> np.ndarray:
    """``factors.gradient`` at phases theta."""
    channels, y = products_at(factors, theta)
    return factors.gradient(y, *factors.quartic(channels, y))


def factors_mu(factors: SurrogateFactors) -> np.ndarray:
    """mu = diag(U4) = cc sum_j gp_j o ((FP)^H H)_j as a row sum over the
    factors' nonzero precoder columns (``build_quadratic_terms`` takes
    the row sums of cc (GP (FP)^H) o H^T instead)."""
    consts = factors.consts
    fp = consts.f @ factors.p_nz
    return factors.cc * np.sum(factors.gp_conj.conj() * (fp.conj().T @ consts.h).T, axis=1)


def comm_gradient(factors: SurrogateFactors, theta: np.ndarray) -> np.ndarray:
    """U3 theta + mu* from Psi and mu: the communication part of the
    gradient, which ``SurrogateFactors.gradient`` takes from C P."""
    psi = factors.rows[2:].T
    return (factors.cc * (psi @ (psi.conj().T @ theta))
            + factors_mu(factors).conj())


def plain_linearization(factors: SurrogateFactors, theta: np.ndarray
                        ) -> np.ndarray:
    """The paper's plain linearization at theta, from the unsymmetrized
    U1 = c p q^T with no anchor: nu = 2 c q_v q + U3 theta + mu*.  It is
    not ascent-safe on radar-weighted scenes."""
    _, qv, q_v, _ = quartic_at(factors, theta)
    return 2.0 * factors.c * q_v * qv + comm_gradient(factors, theta)


def anchored_surrogate_value(factors: SurrogateFactors, theta: np.ndarray,
                             pv: np.ndarray, qv: np.ndarray,
                             rho: float) -> float:
    """Quadratic surrogate with anchor rho, expanded where (p, q) were
    taken, at theta, from the factors."""
    quartic = 2.0 * factors.c * np.real(np.vdot(theta, pv)
                                        * np.vdot(theta, qv))
    coords = factors.rows[2:].conj() @ theta
    quad = (factors.cc * np.vdot(coords, coords).real
            + rho * np.vdot(theta, theta).real)
    lin = 2.0 * np.real(theta @ factors_mu(factors))
    return float(quartic + quad + lin)


def wirtinger_gradient(theta: IrsPhase, p: Precoder, ch: ChannelSet,
                       cfg: SceneConfig) -> np.ndarray:
    """Conjugate-coordinate gradient of the true objective at theta.

    For real objective g, dg = 2 Re{grad^H d theta}.  The communication
    terms contribute mu* + U3 theta (``comm_gradient``); the quartic term
    is the product of the two PSD forms q_v q_w in b = theta o a, so the
    product rule gives a* o (c (q_w V b + q_v W b)) = c (q_w p + q_v q).
    """
    return gradient_at(SurrogateFactors(p, ChannelConstants(ch, cfg)),
                       theta.theta)


def objective_snapshot(p: Precoder, theta: IrsPhase, ch: ChannelSet,
                       cfg: SceneConfig) -> tuple[float, float, float]:
    """(weighted objective, radar SNR, communication SNR) at (P, theta),
    from the same kernel that scores the phase solvers' iterates."""
    factors = SurrogateFactors(p, ChannelConstants(ch, cfg))
    return factors.at(theta)[1]


def project_trace(m: np.ndarray, target: float) -> np.ndarray:
    """Frobenius projection onto the hyperplane tr(M) = target
    (``project_spectrahedron`` fuses it with the cone)."""
    n = m.shape[0]
    return m + ((target - np.trace(m)) / n) * np.eye(n)


def simplex_projection(w: np.ndarray, target: float) -> np.ndarray:
    """Projection of a real vector onto {v >= 0, sum v = target} by sorting
    (Held et al. 1974), the oracle for ``precoder._simplex_scaled``."""
    w = w - w.max()
    mu = np.sort(w)[::-1]
    cssv = np.cumsum(mu) - target
    ind = np.arange(1, w.size + 1)
    support = ind[mu - cssv / ind > 0][-1]
    return np.maximum(w - cssv[support - 1] / support, 0.0)


def kkt_point(omega: np.ndarray, cfg: SceneConfig, r_d: np.ndarray,
              t: float) -> tuple[np.ndarray, float]:
    """S(t) = Pi_C(R_D + t Omega) from a dense N x N ``eigh``, and its
    squared distance from R_D: the oracle for ``KktForm.point``."""
    w, u = np.linalg.eigh(hermitize(r_d + t * omega))
    s = hermitize((u * simplex_projection(w, cfg.power_budget)) @ u.conj().T)
    return s, float(np.sum(np.abs(s - r_d) ** 2))


def rank_k_point(omega: np.ndarray, cfg: SceneConfig, r_d: np.ndarray,
                 t: float, k: int) -> tuple[np.ndarray, float]:
    """F (N x min(k, N)) with F F^H = S_K(t) = Pi_{C_K}(R_D + t Omega), the
    top k eigenpairs of a dense ``eigh`` with their eigenvalues projected
    onto the simplex, and ||F F^H - R_D||^2: the oracle for
    ``KktForm.rank_factor``."""
    w, u = np.linalg.eigh(hermitize(r_d + t * omega))
    f = u[:, -k:] * np.sqrt(simplex_projection(w[-k:], cfg.power_budget))
    return f, float(np.sum(np.abs(f @ f.conj().T - r_d) ** 2))


def dense_kkt_search(omega: np.ndarray, cfg: SceneConfig, r_d: np.ndarray
                     ) -> tuple[np.ndarray, float]:
    """The binding solve on dense points (``kkt_point``), for a ball that
    binds: doubling t from sqrt(gamma) / ||Omega||_F until S(t) leaves the
    ball, then ``_kkt_root`` on the bracket.  (ball projection of S(t_hi),
    t_hi): the oracle for ``solve_relaxed``'s search."""
    gamma = cfg.beampattern_tol
    t, lo = math.sqrt(gamma) / float(np.linalg.norm(omega)), (0.0, r_d, 0.0)
    for _ in range(_KKT_MAX_DOUBLINGS):
        hi = (t, *kkt_point(omega, cfg, r_d, t))
        if hi[2] > gamma:
            break
        lo, t = hi, 2.0 * t
    _, hi = _kkt_root(lambda t: kkt_point(omega, cfg, r_d, t), gamma, lo, hi,
                      lambda t, d: 0.0)
    return project_ball(hi[1], r_d, gamma), hi[0]


def relaxed_dual_bound(omega: OmegaRows, cfg: SceneConfig, t: float
                       ) -> float:
    """``KktForm.dual_bound`` at a scale t > 0 on a form built afresh from
    ``omega``: the certified bound ``solve_relaxed`` stores at its KKT
    scale, here at any scale and for any factor of Omega."""
    form = precoder.KktForm(omega, cfg)
    return form.dual_bound(t, *form.point(t))


def model_rows(channels) -> OmegaRows:
    """The factor ``build_omega`` forms Omega from: the rows [alpha t t^T; C]
    at the phases of the effective ``channels``, weighted beta / sigma_R^2
    and (1 - beta) / sigma_C^2 (N + K rows, against the channels' 1 + K)."""
    consts, cfg = channels.consts, channels.consts.cfg
    c_r, c_c = _dense_channels(channels.theta.theta, consts, cfg.alpha)
    return OmegaRows(np.vstack((c_r, c_c)),
                     np.repeat((cfg.beta / cfg.sigma2_radar,
                                (1.0 - cfg.beta) / cfg.sigma2_comm),
                               (c_r.shape[0], c_c.shape[0])))


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


def plain_unit_diag_relaxation(a: np.ndarray, max_steps: int | None = None,
                               tol: float = 1e-12) -> np.ndarray:
    """Reference for ``solve_unit_diag_relaxation``: the same map at the
    rank of B, Z <- normalize_cols((Z E M) E^H), iterated alone from V = I
    until one map gains at most ``tol`` relative or after ``max_steps``
    maps (``ratio._UNIT_DIAG_MAX_STEPS`` by default), with no
    extrapolation: the library's ascent before it took SQUAREM cycles and
    stopped on the fixed-point residual."""
    if max_steps is None:
        max_steps = ratio._UNIT_DIAG_MAX_STEPS
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
    for _ in range(max_steps - 1):
        g = (z @ em) @ e_h
        f_new = float(np.real(np.vdot(z, g))) - offset     # tr(A Z^H Z)
        if abs(f_new - f) <= tol * abs(f):
            break
        f = f_new
        norms = np.linalg.norm(g, axis=0)
        np.divide(g, norms, out=z, where=norms != 0.0)
    r = z.conj().T @ z
    r[fixed, fixed] = 1.0
    return hermitize(r)


def plain_minorization(theta0: IrsPhase, p: Precoder, ch, cfg: SceneConfig,
                       inner_max: int = 200, start: tuple | None = None
                       ) -> tuple[IrsPhase, InnerTrace]:
    """Reference for ``solve_irs_minorization``: the same phase map
    exp(j arg nu) iterated alone until one map gains at most
    ``irs._INNER_TOL`` relative or after ``inner_max`` maps, with no
    extrapolation; the library's loop before it took SQUAREM cycles."""
    factors = SurrogateFactors(p, ChannelConstants(ch, cfg))
    trace = InnerTrace()
    channels, snapshot, y = start or factors.at(theta0)
    trace.objectives.append(snapshot[0])
    for _ in range(inner_max):
        g_prev = snapshot[0]
        channels, snapshot, y = factors.at(
            irs_phase_update(factors.linearize(channels, y)))
        g_new = snapshot[0]
        if g_new < g_prev - 1e-9 * abs(g_prev):
            raise MonotonicityError(
                f"objective decreased from {g_prev:.12g} to {g_new:.12g} "
                f"in the inner phase update")
        trace.objectives.append(g_new)
        if abs(g_new - g_prev) <= irs._INNER_TOL * abs(g_prev):
            break
    trace.snapshot, trace.channels, trace.products = snapshot, channels, y
    return channels.theta, trace


def rejecting_extrapolations(squarem_ascent):
    """``squarem_ascent`` with every extrapolated point forced back to the
    start of the ascent, whose map lies below two maps taken later, so the
    guard rejects it: each cycle keeps its two plain maps."""
    def ascent(start, step, project, converged, max_maps):
        x0 = start[0].copy()
        return squarem_ascent(start, step,
                              lambda x, near: project(x0.copy(), near),
                              converged, max_maps)
    return ascent


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


# --- the channel draw, as first written -------------------------------------
#
# The library draws the same entries with the same generator calls; it
# shares one read-only steering vector per scene, forms the planar steering
# vector as a flattened outer product and writes the Gaussian parts in
# place.


def kron_upa_steering(psi_a: float, psi_e: float, l_x: int, l_y: int,
                      d_over_lambda: float) -> np.ndarray:
    """Reference for ``scene.upa_steering``: ``np.kron`` of the row and
    column factors."""
    inc_y = TWO_PI * d_over_lambda * math.cos(psi_a) * math.sin(psi_e)
    inc_x = TWO_PI * d_over_lambda * math.sin(psi_a) * math.sin(psi_e)
    a_y = np.exp(1j * inc_y * np.arange(l_y))
    a_x = np.exp(1j * inc_x * np.arange(l_x))
    return np.kron(a_y, a_x)


def reference_complex_normal(rng: np.random.Generator, *shape: int
                             ) -> np.ndarray:
    """Reference for ``scene.complex_normal``: (x + jy) / sqrt(2)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        / np.sqrt(2.0)


def reference_rician_channel(rows: int, cols: int, k_factor: float,
                             los: np.ndarray, rng: np.random.Generator
                             ) -> np.ndarray:
    """Reference for ``scene.rician_channel``."""
    w_los = math.sqrt(k_factor / (1.0 + k_factor))
    w_nlos = math.sqrt(1.0 / (1.0 + k_factor))
    return w_los * los + w_nlos * reference_complex_normal(rng, rows, cols)


def reference_make_channels(cfg: SceneConfig, rng: np.random.Generator
                            ) -> ChannelSet:
    """Reference for ``scene.make_channels``: every vector formed afresh
    on every draw."""
    lx, ly, d = cfg.irs_cols, cfg.irs_rows, cfg.spacing_over_lambda
    steer = kron_upa_steering(cfg.target_azimuth, cfg.target_elevation,
                              lx, ly, d)
    az = rng.uniform(0.0, TWO_PI)
    el = rng.uniform(0.0, np.pi)
    los_g = np.outer(kron_upa_steering(az, el, lx, ly, d),
                     ula_steering(cfg.radar_irs_azimuth, cfg.n_tx, d))
    g = reference_rician_channel(cfg.n_irs, cfg.n_tx, cfg.rician_g, los_g,
                                 rng)
    los_h = np.outer(random_phase_vector(rng, cfg.n_users),
                     random_phase_vector(rng, cfg.n_irs))
    h = reference_rician_channel(cfg.n_users, cfg.n_irs, cfg.rician_h, los_h,
                                 rng)
    los_f = np.outer(random_phase_vector(rng, cfg.n_users),
                     random_phase_vector(rng, cfg.n_tx))
    f = reference_rician_channel(cfg.n_users, cfg.n_tx, cfg.rician_f, los_f,
                                 rng)
    return ChannelSet(g=g, h=h, f=f, steer=steer)


# --- the config checks, through the ``numbers`` ABCs alone ------------------


def abc_is_finite(value) -> bool:
    """Reference verdict of ``errors.require_finite``, with no exact-type
    path."""
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        return False
    try:
        z = complex(value)
    except OverflowError:
        return False
    return math.isfinite(z.real) and math.isfinite(z.imag)


def abc_is_integer(value) -> bool:
    """Reference verdict of ``errors.require_integer``, with no exact-type
    path."""
    return not isinstance(value, bool) and isinstance(value,
                                                      numbers.Integral)
