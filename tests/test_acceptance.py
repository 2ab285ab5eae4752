"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import isacopt.irs as irs
from isacopt import (IrsPhase, OmegaRows, Precoder, SceneConfig,
                     default_beampattern_target, irs_phase_update,
                     load_experiment_spec, make_channels, run_experiment,
                     solve_irs_minorization, solve_relaxed)
from isacopt.harness import (aggregate_convergence, near_square_grid,
                             read_csv_rows)
from isacopt.irs import build_quartic_surrogate, linear_surrogate_vectors
from isacopt.objective import (build_omega, quartic_kernels, snr_comm,
                               snr_radar)
from isacopt.precoder import relaxed_objective
from isacopt.scene import complex_normal

from conftest import random_scene, scored_start
from reference import (decompose_objective, dense_quadratic_terms,
                       feasibility_residuals, quartic_kernels_reference,
                       quartic_surrogate_constant, wirtinger_gradient)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_decomposition_oracle():
    tic = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        l_rows = int(rng.integers(1, 3))
        l_cols = int(rng.integers(1, 5))
        cfg, ch, p, theta = random_scene(
            rng, l_rows=l_rows, l_cols=l_cols,
            n_tx=int(rng.integers(1, 5)), k=int(rng.integers(1, 4)))
        br = decompose_objective(p, theta, ch, cfg)
        omega_form = float(np.real(np.vdot(p.p, build_omega(theta, ch, cfg) @ p.p)))
        snr_form = cfg.beta * snr_radar(p, theta, ch, cfg) \
            + (1 - cfg.beta) * snr_comm(p, theta, ch, cfg)
        scale = max(abs(snr_form), 1e-30)
        worst = max(worst, abs(br.total - omega_form) / scale,
                    abs(br.total - snr_form) / scale)
    elapsed = time.perf_counter() - tic
    _report(1, "decomposition agrees across all three evaluation paths",
            worst <= 1e-9 and elapsed < 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_kronecker_equivalence():
    tic = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for l in (2, 4, 6, 8):
        for _ in range(50):
            x = complex_normal(rng, l, l)
            v = complex_normal(rng, l, l)
            w = complex_normal(rng, l, l)
            y, z = quartic_kernels(x, v, w)
            y_ref, z_ref = quartic_kernels_reference(x, v, w)
            worst = max(
                worst,
                np.linalg.norm(y - y_ref) / max(np.linalg.norm(y_ref), 1e-300),
                np.linalg.norm(z - z_ref) / max(np.linalg.norm(z_ref), 1e-300))
    elapsed = time.perf_counter() - tic
    _report(2, "kernel fast path equals the explicit Kronecker operator",
            worst <= 1e-10 and elapsed < 5.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_double_minorization_tangency_and_ascent(monkeypatch):
    rng = np.random.default_rng(103)
    monkeypatch.setattr(irs, "_INNER_TOL", 0.0)
    worst_tangency = 0.0
    violations = 0
    for scene_idx in range(50):
        cfg, ch, p, theta_t = random_scene(
            rng, l_rows=3, l_cols=4,
            beta=float(rng.uniform(0.02, 0.98)),
            alpha=complex(10 ** rng.uniform(-2, 0)))
        br = decompose_objective(p, theta_t, ch, cfg)

        # layer 1 tangency: surrogate minus dropped constant equals the
        # quartic term at the expansion point
        u1, u2 = build_quartic_surrogate(theta_t, p, ch, cfg)
        c1 = quartic_surrogate_constant(theta_t, p, ch, cfg)
        th = theta_t.theta
        quartic_form = float(np.real(th.conj() @ u1 @ th.conj() + th @ u2 @ th))
        scale4 = max(abs(br.g4), 1e-12)
        worst_tangency = max(worst_tangency,
                             abs(quartic_form - c1 - br.g4) / scale4)

        # layer 2 tangency: the linearization with constants restored
        # reproduces the quadratic surrogate at the expansion point
        u3, mu = dense_quadratic_terms(p, ch, cfg)
        nu, eta = linear_surrogate_vectors(theta_t, u1, u2, u3, mu)
        lin_at_t = float(np.real(th.conj() @ nu + th @ eta))
        quad_at_t = quartic_form + float(np.real(th.conj() @ u3 @ th)) + br.g1
        dropped = quartic_form + float(np.real(th.conj() @ u3 @ th))
        scale_q = max(abs(quad_at_t), 1e-12)
        worst_tangency = max(worst_tangency,
                             abs((lin_at_t - dropped) - quad_at_t) / scale_q)

        # ascent over 200 forced inner iterations, slack 1e-9 relative
        _, trace = solve_irs_minorization(
            p, scored_start(theta_t, p, ch, cfg), inner_max=200)
        for a, b in zip(trace.objectives, trace.objectives[1:]):
            if b < a - 1e-9 * abs(a):
                violations += 1
    _report(3, "both surrogate layers tangent and the inner update ascends",
            worst_tangency <= 1e-9 and violations == 0,
            f"worst tangency {worst_tangency:.2e}, {violations} dips "
            f"in 50x200 iterations")


def test_criterion_04_closed_form_update_optimality():
    rng = np.random.default_rng(104)
    worst_gap = 0.0
    ok = True
    for instance in range(10):
        l = int(rng.integers(2, 16))
        nu = complex_normal(rng, l) * rng.uniform(0.1, 10)
        out = irs_phase_update(nu)
        attained = float(np.real(out.theta.conj() @ nu))
        analytic = float(np.abs(nu).sum())
        worst_gap = max(worst_gap, abs(attained - analytic) / analytic)
        values = []
        for _ in range(10_000):
            cand = np.exp(2j * np.pi * rng.random(l))
            values.append(float(np.real(cand.conj() @ nu)))
        ok = ok and attained >= max(values)
    _report(4, "phase update attains the analytic torus maximum",
            worst_gap <= 1e-12 and ok,
            f"worst rel gap to analytic max {worst_gap:.2e}, "
            f"beats 10^4 random points per instance")


def test_criterion_05_gradient_check():
    tic = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        cfg, ch, p, theta = random_scene(rng, l_rows=2, l_cols=3)
        grad = wirtinger_gradient(theta, p, ch, cfg)
        norm = np.linalg.norm(grad)
        step = 1e-6
        for l in range(cfg.n_irs):
            for direction in (1.0, 1j):
                delta = np.zeros(cfg.n_irs, dtype=complex)
                delta[l] = direction * step
                up = _objective_offcircle(theta.theta + delta, p, ch, cfg)
                dn = _objective_offcircle(theta.theta - delta, p, ch, cfg)
                fd = (up - dn) / (2 * step)
                analytic = 2 * np.real(grad[l] * np.conj(direction))
                worst = max(worst, abs(analytic - fd) / max(norm, abs(fd), 1e-12))
    elapsed = time.perf_counter() - tic
    _report(5, "conjugate gradient matches central finite differences",
            worst <= 1e-5 and elapsed < 5.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def _objective_offcircle(theta_vec, p, ch, cfg):
    th = np.diag(theta_vec)
    cc = (1 - cfg.beta) / cfg.sigma2_comm
    fp = ch.f @ p.p
    htgp = (ch.h @ th @ ch.g) @ p.p
    b = theta_vec * ch.steer
    w = ch.g.conj() @ ch.g.T
    pp = p.p @ p.p.conj().T
    v = (ch.g @ pp @ ch.g.conj().T).T
    c = cfg.beta * abs(cfg.alpha) ** 2 / cfg.sigma2_radar
    return float(cc * np.sum(np.abs(fp) ** 2)
                 + cc * 2 * np.real(np.vdot(fp, htgp))
                 + cc * np.sum(np.abs(htgp) ** 2)
                 + c * np.real(b.conj() @ v @ b) * np.real(b.conj() @ w @ b))


def test_criterion_06_convex_subproblem_optimality():
    rng = np.random.default_rng(106)
    worst_gap = 0.0
    worst_residual = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        cfg = SceneConfig(n_tx=n, n_rx=n, n_users=2, irs_rows=2, irs_cols=2,
                          beampattern_tol=1e9)
        r_d = default_beampattern_target(cfg)
        m = complex_normal(rng, n, n)
        omega = m @ m.conj().T
        s = solve_relaxed(OmegaRows(m.conj().T, np.ones(n)), cfg)
        target = cfg.power_budget * float(np.linalg.eigvalsh(omega)[-1])
        worst_gap = max(worst_gap,
                        abs(relaxed_objective(s, omega) - target) / target)
        for res in feasibility_residuals(cfg, r_d):
            worst_residual = max(worst_residual, res(s.s))
    _report(6, "relaxed solve attains the analytic optimum, feasible to 1e-8",
            worst_gap <= 1e-6 and worst_residual < 1e-8,
            f"worst optimality gap {worst_gap:.2e}, "
            f"worst residual {worst_residual:.2e}")


@pytest.fixture(scope="module")
def paper_convergence(tmp_path_factory):
    out = tmp_path_factory.mktemp("convergence")
    spec = load_experiment_spec({
        "kind": "convergence",
        "scene": {"n_tx": 16, "n_rx": 16, "n_users": 5, "irs_rows": 6,
                  "irs_cols": 6, "power_budget_dbm": 30,
                  "sigma2_radar_dbm": 0, "sigma2_comm_dbm": 0,
                  "alpha_mag_db": -20},
        "solver": {"eps_rel_db": -20, "t_max": 20},
        "beta_values": [0.01, 0.5, 0.99],
        "trials": 50,
        "master_seed": 7,
        "output_dir": str(out),
    })
    tic = time.perf_counter()
    result = run_experiment(spec)
    return spec, result, time.perf_counter() - tic


def test_criterion_07_convergence_envelope(paper_convergence):
    spec, result, elapsed = paper_convergence
    ok = not result.trial_errors
    detail = []
    for beta in (0.01, 0.5, 0.99):
        _, raw = read_csv_rows(Path(spec.output_dir)
                               / f"convergence_raw_beta{beta:g}.csv")
        curves = {}
        for trial, _it, objective, _sr, _sc in raw:
            curves.setdefault(int(trial), []).append(float(objective))
        ok = ok and len(curves) == 50
        ok = ok and all(len(c) <= 20 for c in curves.values())
        agg = aggregate_convergence([curves[k] for k in sorted(curves)])
        means = [row[1] for row in agg]
        nondecreasing = all(b >= a - 1e-12 * abs(a)
                            for a, b in zip(means, means[1:]))
        ok = ok and nondecreasing
        detail.append(f"beta={beta:g}: {max(len(c) for c in curves.values())}"
                      f" iters max, mean curve {'up' if nondecreasing else 'DIP'}")
    ok = ok and elapsed < 600.0
    _report(7, "table configuration converges within budget",
            ok, "; ".join(detail) + f"; {elapsed:.0f}s for 150 runs")


@pytest.fixture(scope="module")
def method_comparison(tmp_path_factory):
    out = tmp_path_factory.mktemp("scaling")
    spec = load_experiment_spec({
        "kind": "scaling",
        "scene": {"n_tx": 16, "n_rx": 16, "n_users": 5, "beta": 0.9,
                  "power_budget_dbm": 30, "sigma2_radar_dbm": 0,
                  "sigma2_comm_dbm": 0, "alpha_mag_db": -20},
        "solver": {"eps_rel_db": -20, "t_max": 15, "inner_max": 150},
        "l_values": [16, 36, 64],
        "trials": 20,
        "master_seed": 11,
        "output_dir": str(out),
    })
    return spec, run_experiment(spec)


def test_criterion_08_method_comparison(method_comparison, monkeypatch):
    spec, result = method_comparison
    ok = not result.trial_errors
    _, rows = read_csv_rows(Path(spec.output_dir) / "scaling.csv")
    mean_obj = {(int(r[0]), r[1]): float(r[2]) for r in rows}
    ratios = []
    for l in (16, 36, 64):
        ratio = mean_obj[(l, "minorization")] / mean_obj[(l, "manifold")]
        ratios.append(f"L={l}: {ratio:.3f}")
        ok = ok and ratio >= 0.95
    # time per inner iteration against L, at a fixed iteration count on
    # one seeded scene per size, so that an O(L^3) step cannot hide behind
    # inner counts that fall with L
    rng = np.random.default_rng(108)
    monkeypatch.setattr(irs, "_INNER_TOL", 0.0)
    l_grid = (16, 36, 64, 144)
    per_inner = []
    for l in l_grid:
        rows_, cols_ = near_square_grid(l)
        cfg = replace(spec.scene, irs_rows=rows_, irs_cols=cols_)
        ch = make_channels(cfg, rng)
        p = complex_normal(rng, cfg.n_tx, cfg.n_users)
        p = Precoder(p * np.sqrt(cfg.power_budget / np.sum(np.abs(p) ** 2)))
        theta0 = IrsPhase(np.exp(2j * np.pi * rng.random(l)))
        samples = []
        for _ in range(5):
            tic = time.perf_counter()
            _, trace = solve_irs_minorization(
                p, scored_start(theta0, p, ch, cfg), inner_max=20)
            samples.append((time.perf_counter() - tic)
                           / (len(trace.objectives) - 1))
        per_inner.append(float(np.median(samples)))
    exponent = float(np.polyfit(np.log(l_grid), np.log(per_inner), 1)[0])
    ok = ok and exponent <= 1.0
    _report(8, "closed-form solver matches the manifold baseline and scales",
            ok, f"objective ratios {', '.join(ratios)}; time per inner "
            f"iteration {', '.join(f'{t * 1e3:.2f}' for t in per_inner)} ms, "
            f"exponent {exponent:.2f}")


@pytest.fixture(scope="module")
def ratio_study(tmp_path_factory):
    out = tmp_path_factory.mktemp("ratio")
    spec = load_experiment_spec({
        "kind": "ratio",
        "scene": {"n_tx": 16, "n_rx": 16, "n_users": 5, "beta": 0.9,
                  "power_budget_dbm": 30, "sigma2_radar_dbm": 0,
                  "sigma2_comm_dbm": 0, "alpha_mag_db": -20},
        "solver": {"eps_rel_db": -20, "t_max": 10},
        "l_values": [8, 36],
        "n_g_grid": [10, 100, 1000, 10000],
        "trials": 50,
        "master_seed": 13,
        "output_dir": str(out),
    })
    return spec, run_experiment(spec)


def test_criterion_09_randomization_ratio_study(ratio_study):
    spec, result = ratio_study
    ok = not result.trial_errors
    _, rows = read_csv_rows(Path(spec.output_dir) / "ratio.csv")
    mean_ratio = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
    ok = ok and all(v <= 1.0 for v in mean_ratio.values())
    grid = [10, 100, 1000, 10_000]
    details = []
    for l in (8, 36):
        rho = stats.spearmanr(grid, [mean_ratio[(l, n)] for n in grid]).statistic
        details.append(f"L={l}: spearman {rho:.2f}")
        ok = ok and rho > 0
    degraded = mean_ratio[(36, 10_000)] < mean_ratio[(8, 10_000)]
    ok = ok and degraded
    _report(9, "randomization ratio grows with samples, degrades with size",
            ok, "; ".join(details) + f"; ratio(36)={mean_ratio[(36, 10000)]:.3f}"
            f" < ratio(8)={mean_ratio[(8, 10000)]:.3f}")


def test_criterion_10_determinism(tmp_path):
    base = {
        "scene": {"n_tx": 4, "n_rx": 4, "n_users": 2, "irs_rows": 2,
                  "irs_cols": 3, "alpha_mag_db": -10},
        "solver": {"t_max": 4},
        "trials": 4,
        "master_seed": 99,
    }
    compared = 0
    ok = True
    for kind, extra in (("convergence", {"beta_values": [0.3, 0.9]}),
                        ("ratio", {"l_values": [4], "n_g_grid": [5, 25]}),
                        ("scaling", {"l_values": [4]})):
        outputs = []
        for run in ("a", "b"):
            spec = load_experiment_spec({
                "kind": kind, **base, **extra,
                "output_dir": str(tmp_path / f"{kind}_{run}")})
            run_experiment(spec)
            outputs.append(sorted(
                p for p in (tmp_path / f"{kind}_{run}").iterdir()
                if p.suffix == ".csv" and "timing" not in p.name))
        for pa, pb in zip(*outputs):
            assert pa.name == pb.name
            ok = ok and pa.read_bytes() == pb.read_bytes()
            compared += 1
    _report(10, "re-runs with identical config and seed are byte-identical",
            ok and compared >= 8, f"{compared} primary CSVs compared")
