import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacopt import (ChannelSet, ConfigError, IrsPhase, RelaxedCovariance,
                     default_beampattern_target, factor_precoder,
                     make_channels, project_ball, solve_relaxed)
from isacopt import harness, precoder
from isacopt.objective import ChannelConstants, build_omega, hermitize
from isacopt.precoder import (dykstra_project, precoder_objective,
                              project_psd, project_spectrahedron,
                              relaxed_objective, validate_beampattern_target)
from isacopt.scene import SceneConfig, complex_normal

from conftest import (eigh_rows, omega_rows, random_hermitian, random_omega,
                      random_psd, small_config)
from reference import (dense_kkt_search, feasibility_residuals, kkt_point,
                       model_rows, project_trace, rank_k_point,
                       relaxed_dual_bound, simplex_projection)


class TestProjectPsd:
    def test_clamps_negative_eigenvalue(self):
        out = project_psd(np.diag([1.0, -1.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_psd_input_unchanged(self, rng):
        m = random_psd(rng, 4)
        np.testing.assert_allclose(project_psd(m), m, atol=1e-12)

    def test_frobenius_optimality_probe(self, rng):
        m = random_hermitian(rng, 4)
        out = project_psd(m)
        best = np.linalg.norm(out - m)
        for _ in range(100_000):
            cand = random_psd(rng, 4, scale=rng.uniform(0.02, 1.5))
            assert np.linalg.norm(cand - m) >= best - 1e-12

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ConfigError):
            project_psd(complex_normal(rng, 3, 3))

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -60], ids=["1", "2^-60"])
    def test_rejects_triangular_at_any_scale(self, rng, scale):
        with pytest.raises(ConfigError, match="not Hermitian"):
            project_psd(scale * np.triu(random_psd(rng, 3)))


class TestProjectTrace:
    def test_on_target_unchanged(self, rng):
        m = random_hermitian(rng, 3)
        m = m + (2.0 - np.trace(m)) / 3 * np.eye(3)
        np.testing.assert_allclose(project_trace(m, 2.0), m, atol=1e-14)

    def test_zero_matrix(self):
        out = project_trace(np.zeros((4, 4), dtype=complex), 1.0)
        np.testing.assert_allclose(out, np.eye(4) / 4)

    def test_kkt_structure(self, rng):
        m = random_hermitian(rng, 5)
        out = project_trace(m, 3.0)
        assert np.trace(out).real == pytest.approx(3.0, abs=1e-12)
        diff = out - m
        np.testing.assert_allclose(diff, np.trace(diff) / 5 * np.eye(5),
                                   atol=1e-12)


class TestProjectBall:
    def test_center_unchanged(self, rng):
        c = random_hermitian(rng, 3)
        np.testing.assert_allclose(project_ball(c, c, 2.0), c)

    def test_radial_scaling(self, rng):
        c = random_hermitian(rng, 3)
        d = random_hermitian(rng, 3)
        d = d / np.linalg.norm(d)
        gamma = 0.5
        m = c + 2.0 * math.sqrt(gamma) * d   # distance^2 = 4 gamma
        out = project_ball(m, c, gamma)
        assert np.linalg.norm(out - c) == pytest.approx(math.sqrt(gamma),
                                                        rel=1e-12)

    def test_optimality_probe(self, rng):
        c = random_hermitian(rng, 3)
        gamma = 0.3
        m = c + random_hermitian(rng, 3, scale=3.0)
        out = project_ball(m, c, gamma)
        best = np.linalg.norm(out - m)
        for _ in range(100_000):
            step = random_hermitian(rng, 3)
            cand = c + step * (math.sqrt(gamma) * rng.uniform(0, 1)
                               / np.linalg.norm(step))
            assert np.linalg.norm(cand - m) >= best - 1e-12


class TestProjectionProperties:
    def test_idempotence(self, rng):
        cfg = small_config()
        r_d = default_beampattern_target(cfg)
        for _ in range(5):
            m = random_hermitian(rng, cfg.n_tx, scale=2.0)
            for proj in (project_psd,
                         lambda x: project_trace(x, cfg.power_budget),
                         lambda x: project_ball(x, r_d, cfg.beampattern_tol),
                         lambda x: project_spectrahedron(x, cfg.power_budget)):
                once = proj(m)
                twice = proj(once)
                assert np.linalg.norm(twice - once) <= 1e-12 * max(
                    1.0, np.linalg.norm(once))

    def test_non_expansive(self, rng):
        cfg = small_config()
        r_d = default_beampattern_target(cfg)
        for _ in range(20):
            x = random_hermitian(rng, cfg.n_tx, scale=2.0)
            y = random_hermitian(rng, cfg.n_tx, scale=2.0)
            for proj in (project_psd,
                         lambda m: project_trace(m, cfg.power_budget),
                         lambda m: project_ball(m, r_d, cfg.beampattern_tol),
                         lambda m: project_spectrahedron(m, cfg.power_budget)):
                lhs = np.linalg.norm(proj(x) - proj(y))
                assert lhs <= np.linalg.norm(x - y) + 1e-12


class TestSpectrahedronProjection:
    def test_agrees_with_cyclic_psd_trace(self, rng):
        # the fused projection is the limit of the cone/trace cyclic scheme
        target = 1.7
        for _ in range(5):
            m = random_hermitian(rng, 4, scale=2.0)
            fused = project_spectrahedron(m, target)
            x = m.copy()
            corrections = [np.zeros_like(m), np.zeros_like(m)]
            projs = [project_psd, lambda v: project_trace(v, target)]
            for _ in range(20_000):
                prev = x
                for i, proj in enumerate(projs):
                    shifted = x + corrections[i]
                    x = proj(shifted)
                    corrections[i] = shifted - x
                if np.linalg.norm(x - prev) <= 1e-13:
                    break
            assert np.linalg.norm(x - fused) <= 1e-6 * max(
                1.0, np.linalg.norm(fused))

    def test_randomized_optimality_probe(self, rng):
        target = 1.0
        m = random_hermitian(rng, 3, scale=2.0)
        out = project_spectrahedron(m, target)
        best = np.linalg.norm(out - m)
        for _ in range(50_000):
            cand = random_psd(rng, 3)
            cand = cand * (target / np.trace(cand).real)
            assert np.linalg.norm(cand - m) >= best - 1e-12


class TestDykstraProject:
    def test_feasible_input_fixed_point(self, rng):
        cfg = small_config()
        r_d = default_beampattern_target(cfg)
        out = dykstra_project(r_d, cfg)
        assert np.linalg.norm(out - r_d) <= 1e-8 * max(1.0, np.linalg.norm(r_d))

    def test_large_perturbation_becomes_feasible(self, rng):
        cfg = small_config()
        r_d = default_beampattern_target(cfg)
        m = r_d + random_psd(rng, cfg.n_tx, scale=5.0)
        out = dykstra_project(m, cfg)
        w = np.linalg.eigvalsh(out)
        assert w[0] >= -1e-8 * max(1.0, abs(w).max())
        assert abs(np.trace(out).real - cfg.power_budget) <= 1e-8
        assert np.linalg.norm(out - r_d) <= math.sqrt(cfg.beampattern_tol) + 1e-7

    def test_shrinking_ball_returns_target(self, rng):
        cfg = small_config(beampattern_tol=1e-10)
        r_d = default_beampattern_target(cfg)
        m = r_d + random_hermitian(rng, cfg.n_tx)
        out = dykstra_project(m, cfg)
        assert np.linalg.norm(out - r_d) <= 1e-4

    def test_agrees_with_cyclic_projection(self, rng):
        # Dykstra's cyclic scheme over C and the ball converges to the same
        # projection
        cfg = small_config(n_tx=3, beampattern_tol=0.2)
        r_d = default_beampattern_target(cfg)
        projs = [lambda v: project_spectrahedron(v, cfg.power_budget),
                 lambda v: project_ball(v, r_d, cfg.beampattern_tol)]
        for _ in range(3):
            m = r_d + random_hermitian(rng, 3, scale=2.0)
            out = dykstra_project(m, cfg)
            assert np.sum(np.abs(out - r_d) ** 2) == pytest.approx(
                cfg.beampattern_tol, rel=1e-12)
            x = m.copy()
            corrections = [np.zeros_like(m), np.zeros_like(m)]
            for _ in range(20_000):
                prev = x
                for i, proj in enumerate(projs):
                    shifted = x + corrections[i]
                    x = proj(shifted)
                    corrections[i] = shifted - x
                if np.linalg.norm(x - prev) <= 1e-13:
                    break
            assert np.linalg.norm(x - out) <= 1e-9

    def test_relaxed_optimum_is_fixed_point(self, rng):
        # S* maximizes tr(S Omega) over the feasible set iff it is the
        # projection of S* + eps Omega for eps > 0
        cfg = small_config(n_tx=4, beampattern_tol=0.2)
        r_d = default_beampattern_target(cfg)
        rows, omega = random_omega(rng, 4)
        s = solve_relaxed(rows, cfg).s
        for eps in (1e-2, 1.0, 1e2):
            out = dykstra_project(s + eps * omega, cfg)
            assert np.linalg.norm(out - s) <= 1e-12 * np.linalg.norm(s)


class TestSolveRelaxed:
    def test_identity_objective_gives_budget(self, rng):
        cfg = small_config()
        r_d = default_beampattern_target(cfg)
        rows, omega = omega_rows(np.eye(cfg.n_tx, dtype=complex),
                                 np.ones(cfg.n_tx))
        s = solve_relaxed(rows, cfg)
        assert relaxed_objective(s, omega) == pytest.approx(
            cfg.power_budget, rel=1e-8)

    def test_attains_top_eigenvalue_when_ball_inactive(self, rng):
        for trial in range(5):
            n = int(rng.integers(2, 9))
            cfg = small_config(n_tx=n, beampattern_tol=1e6)
            r_d = default_beampattern_target(cfg)
            rows, omega = random_omega(rng, n)
            s = solve_relaxed(rows, cfg)
            target = cfg.power_budget * np.linalg.eigvalsh(omega)[-1]
            assert relaxed_objective(s, omega) == pytest.approx(target,
                                                                rel=1e-6)

    def test_objective_at_least_target_value(self, rng):
        # the desired covariance is feasible, so it lower-bounds the optimum
        cfg = small_config(n_tx=4)
        r_d = default_beampattern_target(cfg)
        rows, omega = random_omega(rng, 4)
        s = solve_relaxed(rows, cfg)
        assert relaxed_objective(s, omega) >= float(
            np.real(np.vdot(omega, r_d))) - 1e-9

    def test_table_sized_instance_beats_target_covariance(self, rng):
        cfg = SceneConfig()   # 16 transmit antennas, 10 dB beampattern ball
        r_d = default_beampattern_target(cfg)
        rows, omega = random_omega(rng, cfg.n_tx)
        s = solve_relaxed(rows, cfg)
        assert relaxed_objective(s, omega) >= float(
            np.real(np.vdot(omega, r_d))) * (1 - 1e-12)

    def test_invariants_of_result(self, rng):
        cfg = small_config()
        r_d = default_beampattern_target(cfg)
        rows, _ = random_omega(rng, cfg.n_tx)
        s = solve_relaxed(rows, cfg).s
        w = np.linalg.eigvalsh(s)
        assert w[0] >= -1e-8
        assert np.trace(s).real == pytest.approx(cfg.power_budget, rel=1e-8)
        assert np.sum(np.abs(s - r_d) ** 2) <= cfg.beampattern_tol * (1 + 1e-6)

    def test_closed_form_when_ball_slack(self, rng):
        cfg = SceneConfig()   # P_T = 1 and gamma = 10: the ball cannot bind
        r_d = default_beampattern_target(cfg)
        rows, omega = random_omega(rng, cfg.n_tx)
        s = solve_relaxed(rows, cfg)
        w, u = np.linalg.eigh(omega)
        top = u[:, -1]
        np.testing.assert_allclose(
            s.s, cfg.power_budget * np.outer(top, top.conj()), atol=1e-12)
        assert relaxed_objective(s, omega) == pytest.approx(
            cfg.power_budget * w[-1], rel=1e-12)
        assert s.factor is not None and s.factor.shape == (cfg.n_tx, 1)
        np.testing.assert_allclose(s.factor @ s.factor.conj().T, s.s,
                                   atol=1e-15)

    @pytest.mark.kernels
    def test_closed_form_gap_is_certified(self):
        # tr(S Omega) and P_T lambda_max(Omega) are two roundings of one
        # number; against the bare eigenvalue the gap is negative on 97 of
        # these draws of the paper's scene, and the rounding allowance of
        # slack_bound, here of the dense Omega, makes it >= 0 on all
        cfg = SceneConfig()
        ones = IrsPhase(np.ones(cfg.n_irs, dtype=complex))
        for seed in range(200):
            ch = make_channels(cfg, np.random.default_rng(seed))
            omega = build_omega(ones, ch, cfg)
            value = relaxed_objective(solve_relaxed(
                ChannelConstants(ch, cfg).channels(ones), cfg), omega)
            bound = precoder.slack_bound(float(np.linalg.eigvalsh(omega)[-1]),
                                         float(np.linalg.norm(omega)), cfg)
            assert 0.0 <= (bound - value) / bound <= 1e-12

    # small scenes, and the paper's (N = 16, K = 5, L = 36)
    @pytest.mark.kernels
    @pytest.mark.parametrize("cfg", [
        small_config(n_tx=4, beampattern_tol=0.2),
        small_config(n_tx=16, beampattern_tol=0.2),
        SceneConfig(beampattern_tol=0.2)], ids=["4", "16", "paper"])
    def test_binding_ball_solves_exactly(self, rng, cfg):
        r_d = default_beampattern_target(cfg)
        rows, omega = random_omega(rng, cfg.n_tx)
        w, u = np.linalg.eigh(omega)
        closed = cfg.power_budget * np.outer(u[:, -1], u[:, -1].conj())
        assert np.sum(np.abs(closed - r_d) ** 2) > cfg.beampattern_tol
        s = solve_relaxed(rows, cfg)
        assert s.factor is None
        assert np.linalg.norm(s.s - closed) > 1e-3
        for res in feasibility_residuals(cfg, r_d):
            assert res(s.s) <= 1e-12
        value = relaxed_objective(s, omega)
        assert value >= float(np.real(np.vdot(omega, r_d)))
        assert value <= cfg.power_budget * w[-1]
        # the dual bound at the scale the search stopped at certifies it
        gap = (relaxed_dual_bound(rows, cfg, s.kkt_scale) - value) / value
        assert 0.0 <= gap <= 1e-12

    def test_dual_bound_holds_at_any_scale(self, rng):
        cfg = small_config(n_tx=4, beampattern_tol=0.2)
        r_d = default_beampattern_target(cfg)
        rows, omega = random_omega(rng, 4)
        value = relaxed_objective(solve_relaxed(rows, cfg), omega)
        for t in (1e-3, 0.1, 1.0, 10.0, 1e3):
            assert relaxed_dual_bound(rows, cfg, t) >= value * (1 - 1e-12)

    def test_repeated_top_eigenvalue_face_meets_ball(self, rng):
        # Omega's top eigenvalue is double, every P_T u u^H on its eigenspace
        # is outside the ball, but the face of C on that eigenspace meets it:
        # S(t) stays inside the ball for every t, and the optimum is the
        # ball-free one
        cfg = small_config(n_tx=4)
        r_d = default_beampattern_target(cfg)
        q, _ = np.linalg.qr(complex_normal(rng, 4, 4))
        rows, omega = omega_rows(q.conj().T, [0.1, 0.3, 1.0, 1.0])
        v = q[:, 2:]
        nearest = v @ project_spectrahedron(
            v.conj().T @ r_d @ v, cfg.power_budget) @ v.conj().T
        face_dist2 = float(np.sum(np.abs(nearest - r_d) ** 2))
        top_dist2 = (cfg.power_budget ** 2 + float(np.sum(np.abs(r_d) ** 2))
                     - 2 * cfg.power_budget
                     * np.linalg.eigvalsh(v.conj().T @ r_d @ v)[-1])
        assert face_dist2 < top_dist2
        cfg = small_config(n_tx=4, beampattern_tol=0.5 * (face_dist2 + top_dist2))
        s = solve_relaxed(rows, cfg)
        # S(t) stays in the ball, so the search returns it at a large t
        # (1.5e5 here); the simplex threshold is subtracted from the
        # shifted entries, so tr S(t) is P_T to rounding there, not to eps t
        assert s.in_ball_scale > 1e4
        for t in [7.5e4, *np.linspace(1e4, s.in_ball_scale, 41)]:
            (_, v, v0), _ = s.form.point(t)
            assert float(np.sum(v)) + s.form.copies * v0 == pytest.approx(
                cfg.power_budget, rel=1e-15, abs=0.0)
        for res in feasibility_residuals(cfg, r_d):
            assert res(s.s) <= 1e-12
        assert relaxed_objective(s, omega) == pytest.approx(
            cfg.power_budget * np.linalg.eigvalsh(omega)[-1], rel=1e-12)


class TestSlackDistance:
    @pytest.mark.kernels
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 64), mix=st.floats(0.0, 1.0),
           p_t=st.sampled_from([1e-6, 1.0, 3.7, 1e5]),
           aligned=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=16, mix=0.5, p_t=1.0, aligned=False, seed=0)
    def test_within_band_of_dense(self, n, mix, p_t, aligned, seed):
        # the O(N) distance stays inside its band of the dense sum, here
        # with a margin of 10, also for u along the target's beam b; in the
        # paper's scene (the example) band / 10 is 6.9e-14 P_T^2
        rng = np.random.default_rng(seed)
        cfg = small_config(n_tx=n, k=1, power_budget=p_t, beampattern_mix=mix)
        u = complex_normal(rng, n)
        if aligned:
            u = precoder._target(cfg).b + 1e-3 * u
        u /= np.linalg.norm(u)
        dist2, band = precoder.slack_distance(u, cfg)
        diff = p_t * np.outer(u, u.conj()) - default_beampattern_target(cfg)
        dense = float(np.vdot(diff, diff).real)
        assert abs(dist2 - dense) <= band / 10

    def test_decides_as_the_dense_test_at_the_edge(self, rng):
        # gamma at the dense distance and one float either side: inside the
        # band, the dense test decides, exactly as before
        cfg = SceneConfig()
        rows, _ = random_omega(rng, cfg.n_tx)
        top = rows.top_eigenpair()[1][:, np.newaxis]
        s = cfg.power_budget * (top @ top.conj().T)
        diff = s - default_beampattern_target(cfg)
        dense = float(np.vdot(diff, diff).real)
        for gamma, slack in ((dense, True), (np.nextafter(dense, 0.0), False),
                             (np.nextafter(dense, np.inf), True)):
            out = solve_relaxed(rows, replace(cfg, beampattern_tol=gamma))
            assert (out.factor is not None) == slack
            if slack:
                np.testing.assert_array_equal(out.s, s)


def paper_binding_instance(seed, beta=0.5, gamma=0.1):
    """The paper's scene (N=16, K=5, L=36, P_T=1) with the ball of the
    beampattern config, and Omega at unit phases for one channel draw:
    (cfg, R_D, the effective channels, the dense Omega)."""
    cfg = SceneConfig(beta=beta, beampattern_tol=gamma)
    ch = make_channels(cfg, np.random.default_rng(seed))
    ones = IrsPhase(np.ones(cfg.n_irs, dtype=complex))
    channels = ChannelConstants(ch, cfg).channels(ones)
    return (cfg, default_beampattern_target(cfg), channels,
            build_omega(ones, ch, cfg))


class TestKktRoot:
    """The bracketing root search behind ``solve_relaxed``,
    ``factor_precoder`` and ``dykstra_project``."""

    def test_stored_dual_bound_is_relaxed_dual_bound(self, rng):
        for seed in (7, 8):
            cfg, r_d, rows, _ = paper_binding_instance(seed)
            s = solve_relaxed(rows, cfg)
            assert s.kkt_scale is not None
            assert s.dual_bound == relaxed_dual_bound(rows, cfg, s.kkt_scale)
        cfg = SceneConfig()   # slack ball: no KKT point, the slack bound
        rows, _ = random_omega(rng, cfg.n_tx)
        s = solve_relaxed(rows, cfg)
        assert s.kkt_scale is None
        lam, _, norm = rows.top_eigenpair()
        assert s.dual_bound == precoder.slack_bound(lam, norm, cfg)

    def test_root_agrees_with_brentq(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        cfg, r_d, rows, omega = paper_binding_instance(7)
        s = solve_relaxed(rows, cfg)
        t_hi = s.kkt_scale

        def phi(t):
            return kkt_point(omega, cfg, r_d, t)[1] - cfg.beampattern_tol

        root = brentq(phi, 0.0, 2.0 * t_hi, xtol=1e-300, rtol=1e-15)
        assert abs(root - t_hi) <= 1e-12 * t_hi
        assert abs(root - s.in_ball_scale) <= 1e-12 * t_hi

    @pytest.mark.parametrize("floor_frac", [0.0, 1e-13, 1e-6])
    def test_bracket_of_tested_points(self, floor_frac):
        cfg, r_d, _, omega = paper_binding_instance(7)
        gamma = cfg.beampattern_tol
        tested = {}

        def point(t):
            x, dist2 = kkt_point(omega, cfg, r_d, t)
            tested[t] = (x, dist2)
            return x, dist2

        t_small = math.sqrt(gamma) / np.linalg.norm(omega)
        lo = precoder.KktPoint(t_small, *point(t_small))
        hi = precoder.KktPoint(1e3 * t_small, *point(1e3 * t_small))
        assert lo.dist2 <= gamma < hi.dist2
        floor = floor_frac * hi.t
        new_lo, new_hi = precoder._kkt_root(point, gamma, lo, hi,
                                            lambda t, d: 0.0, floor)
        assert lo.t <= new_lo.t < new_hi.t <= hi.t
        # each end is a KktPoint of a scale the search tested, as tested
        for end, inside in ((new_lo, True), (new_hi, False)):
            assert isinstance(end, precoder.KktPoint)
            assert tested[end.t][0] is end.x and tested[end.t][1] == end.dist2
            assert (end.dist2 <= gamma) == inside
        assert new_hi.t - new_lo.t <= max(1e-13 * new_hi.t, floor)
        # a bracket a thousand times wide closes in few tests all the same
        assert len(tested) <= 16

    def test_solve_keeps_the_tested_bracket(self):
        cfg, r_d, rows, omega = paper_binding_instance(8, beta=0.99)
        gamma = cfg.beampattern_tol
        s = solve_relaxed(rows, cfg)
        assert 0.0 < s.in_ball_scale < s.kkt_scale
        assert s.kkt_scale - s.in_ball_scale <= 1e-13 * s.kkt_scale
        # the ends are tested points of the form the solve ran on ...
        assert s.form.point(s.in_ball_scale)[1] <= gamma
        x_hi, dist2 = s.form.point(s.kkt_scale)
        assert dist2 > gamma
        np.testing.assert_array_equal(
            s.s, project_ball(s.form.dense(x_hi), r_d, gamma))
        # ... and of the dense oracle, up to rounding
        s_hi, dense2 = kkt_point(omega, cfg, r_d, s.kkt_scale)
        assert dense2 == pytest.approx(dist2, rel=1e-13)
        np.testing.assert_allclose(s.s, project_ball(s_hi, r_d, gamma),
                                   rtol=0, atol=1e-14)
        # the recovered precoder is a tested in-ball point of the rank-K path
        p = factor_precoder(s, cfg)
        assert np.sum(np.abs(p.p @ p.p.conj().T - r_d) ** 2) <= gamma

    @pytest.mark.parametrize("gamma", [1e-40, 1e-33, 1e-31, 1e-25, 1e-20])
    def test_gamma_at_rounding_level_stops_within_allowance(self, rng,
                                                            monkeypatch, gamma):
        # d(t) is rounding noise where gamma nears the rounding level of the
        # distance; the search stops once d at both ends is within the
        # rounding of the computed distance (it took 27-42 points for gamma
        # from 1e-31 to 1e-20, and 950-990 below, where it bisected down to
        # t_hi = 5e-324), and the output stays feasible and certified
        calls = {"kkt": 0}
        kkt_point_ = precoder.KktForm.point

        def counted(*args):
            calls["kkt"] += 1
            return kkt_point_(*args)

        monkeypatch.setattr(precoder.KktForm, "point", counted)
        cfg = small_config(n_tx=4, k=4, beampattern_tol=gamma)
        r_d = default_beampattern_target(cfg)
        rows, omega = random_omega(rng, 4)
        s = solve_relaxed(rows, cfg)
        assert calls["kkt"] <= 12
        assert s.kkt_scale > 0.0
        for res in feasibility_residuals(cfg, r_d):
            assert res(s.s) <= 1e-12
        np.testing.assert_allclose(s.s, r_d, rtol=0,
                                   atol=math.sqrt(gamma) + 1e-14)
        monkeypatch.undo()
        assert s.dual_bound == relaxed_dual_bound(rows, cfg, s.kkt_scale)
        assert s.dual_bound >= relaxed_objective(s, omega)
        assert s.dual_bound >= float(np.real(np.vdot(omega, r_d)))
        np.testing.assert_allclose(
            dykstra_project(r_d + omega, cfg), r_d, atol=1e-14)

    def test_evaluation_counts_bounded(self, monkeypatch):
        # the beampattern config's ball (gamma = 0.1) binds on every draw;
        # the bisection this search replaced took about 46 and 44
        calls = {"point": 0, "rank_factor": 0}
        for name in calls:
            method = getattr(precoder.KktForm, name)

            def counted(*args, _name=name, _method=method):
                calls[_name] += 1
                return _method(*args)

            monkeypatch.setattr(precoder.KktForm, name, counted)
        searched = 0
        for seed in range(3):
            for beta in (0.01, 0.5, 0.99):
                cfg, r_d, rows, _ = paper_binding_instance(seed, beta=beta)
                calls["point"] = 0
                s = solve_relaxed(rows, cfg)
                assert s.kkt_scale is not None
                assert calls["point"] <= 16
                calls["rank_factor"] = 0
                factor_precoder(s, cfg)
                assert calls["rank_factor"] <= 16
                searched += calls["rank_factor"] > 1   # S(t_in) had rank > K
        assert searched >= 6


# Scenes for the factored form against the dense oracle: the paper scene
# (r = K + 2 = 7 < N), N <= K + 1 (r = N, no complement), the two ends of
# beampattern_mix (d = 0, c = 0) and of beta (one weight zero).
FORM_SCENES = {
    "paper": dict(),
    "n_le_k_plus_1": dict(n_tx=4, n_rx=4, n_users=3),
    "mix_0": dict(beampattern_mix=0.0),
    "mix_1": dict(beampattern_mix=1.0),
    "beta_0": dict(beta=0.0),
    "beta_1": dict(beta=1.0),
}


def form_scene(name, seed=7, **kwargs):
    """(cfg, R_D, channels) at random phases for a ``FORM_SCENES`` entry."""
    cfg = SceneConfig(**{"beta": 0.5, **FORM_SCENES[name], **kwargs})
    rng = np.random.default_rng(seed)
    ch = make_channels(cfg, rng)
    theta = IrsPhase(np.exp(2j * np.pi * rng.random(cfg.n_irs)))
    return (cfg, default_beampattern_target(cfg),
            ChannelConstants(ch, cfg).channels(theta))


def dense_omega(channels):
    """``build_omega`` at the phases of the effective ``channels``, from the
    channels they were formed from."""
    c = channels.consts
    return build_omega(channels.theta, ChannelSet(c.g, c.h, c.f, c.steer),
                       c.cfg)


class TestKktForm:
    """The factored form of R_D + t Omega against the dense N x N oracle."""

    @pytest.mark.parametrize("copies", [0, 1, 9])
    def test_simplex_with_copies_matches_sorting(self, rng, copies):
        # the copies of the complement's eigenvalue join the support as one
        # entry, wherever they fall among w (ties included)
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(200):
                w = scale * rng.standard_normal(int(rng.integers(1, 9)))
                if rng.random() < 0.3:
                    w[: w.size // 2] = 0.0
                w.sort()
                v, v0 = precoder._simplex_scaled(w, 1.0, copies)
                want = simplex_projection(
                    np.concatenate((w, np.zeros(copies))), 1.0)
                atol = 8 * np.finfo(float).eps * (1.0 + scale) * (w.size + copies)
                np.testing.assert_allclose(v, want[: w.size], rtol=0, atol=atol)
                np.testing.assert_allclose(v0, want[w.size:] if copies else 0.0,
                                           rtol=0, atol=atol)
                assert v.sum() + copies * v0 == pytest.approx(1.0, abs=atol)

    @pytest.mark.kernels
    @pytest.mark.parametrize("name", list(FORM_SCENES))
    @pytest.mark.parametrize("factor", ["channels", "model", "signed"])
    def test_points_match_dense_oracle(self, name, factor):
        # three factors: the 1 + K channel rows (r <= K + 2), the N + K rows
        # of the model factor [C_R; C] (r = N), and rows U^H with the signed
        # eigenvalues of Omega_0 = Omega - (tr Omega / N) I for weights, as
        # dykstra_project forms them (r = N)
        cfg, r_d, channels = form_scene(name)
        omega, k = dense_omega(channels), cfg.n_users
        t_star = precoder.KktForm(channels, cfg).start_scale()
        rows, rank = channels, min(cfg.n_tx, cfg.n_users + 2)
        if factor == "model":
            rows, rank = model_rows(channels), cfg.n_tx
            assert rows.rows.shape[0] > cfg.n_tx
        elif factor == "signed":
            omega = omega - (np.trace(omega).real / cfg.n_tx) * np.eye(cfg.n_tx)
            rows, rank = eigh_rows(omega), cfg.n_tx
            assert rows.weights.min() < 0.0 < rows.weights.max()
        form = precoder.KktForm(rows, cfg)
        assert form.q.shape[1] == rank
        for t in (0.5 * t_star, t_star, 4.0 * t_star, 100.0 * t_star):
            x, dist2 = form.point(t)
            s, dense2 = kkt_point(omega, cfg, r_d, t)
            # measured <= 7.2e-15 on d(t) and d_K(t), <= 4.2e-15 on
            # tr(Omega S) and <= 1.6e-15 on S and F F^H (entrywise,
            # against ||S||), over seeds 7 to 16 of these scenes and the
            # three factors
            assert dist2 == pytest.approx(dense2, rel=1e-13)
            np.testing.assert_allclose(form.dense(x), s, rtol=0,
                                       atol=1e-13 * np.linalg.norm(s))
            assert form.trace(x) == pytest.approx(
                float(np.vdot(omega, s).real), rel=1e-13)
            g = form.rank_factor(t, k)
            f, dense2 = rank_k_point(omega, cfg, r_d, t, k)
            assert precoder._distance2(g, r_d) == pytest.approx(
                dense2, rel=1e-13)
            assert g.shape == (cfg.n_tx, k)
            np.testing.assert_allclose(
                g @ g.conj().T, f @ f.conj().T, rtol=0,
                atol=1e-12 * np.linalg.norm(f))
        if factor == "model":
            # a binding ball solved on the model factor and on the channel
            # rows: one optimum
            binding = replace(cfg, beampattern_tol=0.2)
            on_model, on_channels = (solve_relaxed(r, binding)
                                     for r in (rows, channels))
            assert on_model.kkt_scale is not None
            assert on_channels.kkt_scale is not None
            want = relaxed_objective(on_model, omega)
            got = relaxed_objective(on_channels, omega)
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("name", list(FORM_SCENES))
    def test_search_matches_dense_oracle(self, name):
        # R_D = (P_T / N) I (mix 0) is 0.1375 from every rank-5 covariance
        cfg, r_d, channels = form_scene(name, beampattern_tol=0.2)
        omega = dense_omega(channels)
        s = solve_relaxed(channels, cfg)
        assert s.kkt_scale is not None
        s_dense, t_hi = dense_kkt_search(omega, cfg, r_d)
        assert s.kkt_scale == pytest.approx(t_hi, rel=1e-12)
        value = relaxed_objective(s, omega)
        assert value == pytest.approx(float(np.vdot(omega, s_dense).real),
                                      rel=1e-12)
        for res in feasibility_residuals(cfg, r_d):
            assert res(s.s) <= 1e-12
        assert 0.0 <= (s.dual_bound - value) / value <= 1e-12
        p = factor_precoder(s, cfg)
        assert np.sum(np.abs(p.p @ p.p.conj().T - r_d) ** 2) <= cfg.beampattern_tol
        assert precoder_objective(p, omega) <= s.dual_bound

    def test_zero_omega(self):
        # Omega = 0: S(t) = R_D for every t, which attains the optimum 0
        cfg, r_d, channels = form_scene("paper", beampattern_tol=0.1)
        channels.rows[:] = 0.0
        form = precoder.KktForm(channels, cfg)
        assert form.start_scale() == 1.0
        x, dist2 = form.point(3.0)
        assert dist2 <= 1e-30 and form.trace(x) == 0.0
        np.testing.assert_allclose(form.dense(x), r_d, rtol=0, atol=1e-15)
        s = solve_relaxed(channels, cfg)
        assert s.kkt_scale is None and s.dual_bound == 0.0
        np.testing.assert_allclose(s.s, r_d, rtol=0, atol=1e-15)
        p = factor_precoder(s, cfg)
        f, _ = rank_k_point(np.zeros_like(r_d), cfg, r_d, 0.0, cfg.n_users)
        assert np.sum(np.abs(p.p @ p.p.conj().T - r_d) ** 2) == pytest.approx(
            np.sum(np.abs(f @ f.conj().T - r_d) ** 2), rel=1e-12)

    def test_full_support_face_start_is_the_root(self):
        # R_D + t Omega_0 >= c I - t (tr Omega / N) I, so below
        # t = c N / tr Omega the affine point is PSD, S(t) has full support,
        # and t* = sqrt(gamma) / ||Omega_0|| is the KKT scale itself
        cfg, r_d, channels = form_scene("paper")
        omega = dense_omega(channels)
        n, tr = cfg.n_tx, float(np.trace(omega).real)
        omega_0 = omega - (tr / n) * np.eye(n)
        c = (1.0 - cfg.beampattern_mix) * cfg.power_budget / n
        t_star = 0.5 * c * n / tr
        gamma = (t_star * np.linalg.norm(omega_0)) ** 2
        cfg = replace(cfg, beampattern_tol=gamma)
        form = precoder.KktForm(channels, cfg)
        assert form.start_scale() == pytest.approx(t_star, rel=1e-13)
        s = solve_relaxed(channels, cfg)
        assert s.kkt_scale == pytest.approx(t_star, rel=1e-12)
        assert s.in_ball_scale == pytest.approx(t_star, rel=1e-12)
        affine = r_d + t_star * omega_0
        assert np.linalg.eigvalsh(affine)[0] > 0.0
        np.testing.assert_allclose(s.s, affine, rtol=0,
                                   atol=1e-13 * np.linalg.norm(affine))

    def test_dual_bound_valid_where_affine_point_is_not_psd(self):
        # at t* the affine point R_D + t* Omega_0 is off C (not PSD); it
        # maximizes the Lagrangian over the trace hyperplane, which contains
        # C, so its value bounds the one at S(t*), which bounds the optimum
        cfg, r_d, channels = form_scene("paper", beampattern_tol=0.1)
        omega = dense_omega(channels)
        n = cfg.n_tx
        omega_0 = omega - (float(np.trace(omega).real) / n) * np.eye(n)
        t_star = precoder.KktForm(channels, cfg).start_scale()
        affine = r_d + t_star * omega_0
        assert np.linalg.eigvalsh(affine)[0] < 0.0
        gamma = cfg.beampattern_tol
        hyperplane = (float(np.vdot(omega, affine).real)
                      + (gamma - np.sum(np.abs(affine - r_d) ** 2)) / (2 * t_star))
        bound = relaxed_dual_bound(channels, cfg, t_star)
        value = relaxed_objective(solve_relaxed(channels, cfg), omega)
        assert hyperplane >= bound * (1 - 1e-12)
        assert bound >= value
        # S(t*) is inside the ball, as it must be at the start of the search
        assert precoder.KktForm(channels, cfg).point(t_star)[1] <= gamma


class TestFactorPrecoder:
    def test_exact_factor_draws_nothing(self, rng):
        cfg = SceneConfig()
        r_d = default_beampattern_target(cfg)
        rows, omega = random_omega(rng, cfg.n_tx)
        s = solve_relaxed(rows, cfg)
        state = rng.bit_generator.state
        p = factor_precoder(s, cfg)
        assert rng.bit_generator.state == state
        assert p.p.shape[0] == cfg.n_tx
        assert 1 <= p.p.shape[1] <= cfg.n_users and p.p.any(axis=0).all()
        assert p.power() == pytest.approx(cfg.power_budget, rel=1e-12)
        gram = p.p @ p.p.conj().T
        assert np.sum(np.abs(gram - r_d) ** 2) <= cfg.beampattern_tol
        assert precoder_objective(p, omega) == pytest.approx(
            relaxed_objective(s, omega), rel=1e-12)

    def test_factor_shape_validated(self):
        # factor_precoder searches on the form the in-ball scale was tested on
        with pytest.raises(ConfigError, match="form"):
            RelaxedCovariance(np.eye(3), in_ball_scale=1.0)

    def test_rank_one_recovery(self, rng):
        cfg = small_config(n_tx=4, k=1, beampattern_tol=1e6)
        r_d = default_beampattern_target(cfg)
        u = complex_normal(rng, 4)
        u = u / np.linalg.norm(u)
        rows, _ = omega_rows(u.conj()[np.newaxis, :], [1.0])
        s = solve_relaxed(rows, cfg)
        p = factor_precoder(s, cfg)
        # optimal column is sqrt(P_T) u up to a global phase
        overlap = abs(np.vdot(u, p.p[:, 0])) / np.linalg.norm(p.p[:, 0])
        assert overlap == pytest.approx(1.0, abs=1e-9)
        assert p.power() == pytest.approx(cfg.power_budget, rel=1e-10)

    def test_output_feasible_and_bounded_by_relaxation(self, rng):
        for _ in range(5):
            cfg = small_config(n_tx=5, k=3)
            r_d = default_beampattern_target(cfg)
            rows, omega = random_omega(rng, 5)
            s = solve_relaxed(rows, cfg)
            p = factor_precoder(s, cfg)
            assert p.power() == pytest.approx(cfg.power_budget, rel=1e-10)
            gram = p.p @ p.p.conj().T
            assert np.sum(np.abs(gram - r_d) ** 2) <= cfg.beampattern_tol
            assert precoder_objective(p, omega) <= relaxed_objective(
                s, omega) * (1 + 1e-9)

    def test_infeasible_raises(self, rng):
        # a ball too tight for any K-column precoder is a config error, at
        # load and at recovery alike
        cfg = small_config(n_tx=3, k=2, beampattern_tol=1e-12)
        message = (r"^beampattern ball too tight: the nearest 2-column "
                   r"precoder to R_D is at squared distance \S+ > 1e-12$")
        with pytest.raises(ConfigError, match=message):
            validate_beampattern_target(cfg)
        s = RelaxedCovariance(np.eye(3, dtype=complex) / 3)
        with pytest.raises(ConfigError, match=message):
            factor_precoder(s, cfg)

    @pytest.mark.parametrize("n, k, mix, ball, path", [
        (4, 2, 0.5, "slack", "slack factor"),
        (5, 2, 0.5, "binding", "rank-K search"),
        (4, 4, 0.5, "binding", "in-ball S(t)"),
        (4, 2, 0.5, "none", "S_K(0)"),
        (4, 3, 1.0, "none", "S_K(0)"),       # R_D = P_T b b^H: one column
        (3, 5, 0.5, "slack", "slack factor"),
        (3, 5, 0.5, "binding", "in-ball S(t)"),
        (3, 5, 0.5, "none", "S_K(0)"),
    ])
    def test_every_path_gives_no_zero_column(self, n, k, mix, ball, path,
                                              monkeypatch):
        # every return of factor_precoder is N x K', 1 <= K' <= min(K, N),
        # with no zero column, power P_T and its Gram matrix in the ball,
        # where K > N too; the path taken is read from the calls it makes
        rng = np.random.default_rng([53, n, k])
        rows, omega = random_omega(rng, n)
        cfg = small_config(n_tx=n, k=k, beampattern_mix=mix)
        r_d = default_beampattern_target(cfg)
        if ball == "binding":
            # between S_K(0) and the slack point, as test_rank_k_path_property
            near = precoder.validate_beampattern_target(cfg).dist2
            top = np.linalg.eigh(omega)[1][:, -1]
            slack2 = float(np.sum(np.abs(
                cfg.power_budget * np.outer(top, top.conj()) - r_d) ** 2))
            cfg = small_config(n_tx=n, k=k, beampattern_mix=mix,
                               beampattern_tol=0.5 * (near + slack2))
        s = (RelaxedCovariance(r_d) if ball == "none"
             else solve_relaxed(rows, cfg))
        calls = []
        for name in ("validate_beampattern_target", "_kkt_root"):
            monkeypatch.setattr(precoder, name, lambda *args, _f=getattr(
                precoder, name), _name=name: calls.append(_name) or _f(*args))
        p = factor_precoder(s, cfg).p
        taken = ("slack factor" if s.factor is not None
                 else "in-ball S(t)" if not calls
                 else "rank-K search" if "_kkt_root" in calls else "S_K(0)")
        assert taken == path
        assert p.shape[0] == n and 1 <= p.shape[1] <= min(k, n)
        assert p.any(axis=0).all()
        if mix == 1.0:
            assert p.shape[1] == 1
        assert np.sum(np.abs(p) ** 2) == pytest.approx(cfg.power_budget,
                                                       rel=1e-12)
        assert np.sum(np.abs(p @ p.conj().T - r_d) ** 2) \
            <= cfg.beampattern_tol * (1 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), k_frac=st.floats(0.0, 1.0),
           gamma_frac=st.floats(0.0, 1.0, exclude_max=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rank_k_path_property(self, n, k_frac, gamma_frac, seed):
        # gamma between the nearest rank-K covariance to R_D and the slack
        # point: the ball binds and admits a K-column precoder
        k = 1 + min(n - 1, int(k_frac * n))
        rng = np.random.default_rng(seed)
        rows, omega = random_omega(rng, n)
        cfg = small_config(n_tx=n, k=k)   # a slack ball
        r_d = default_beampattern_target(cfg)
        # recovered with neither a factor nor an in-ball scale: S_K(0)
        f0 = factor_precoder(RelaxedCovariance(r_d), cfg).p
        near2 = float(np.sum(np.abs(f0 @ f0.conj().T - r_d) ** 2))
        top = np.linalg.eigh(omega)[1][:, -1]
        slack2 = float(np.sum(np.abs(
            cfg.power_budget * np.outer(top, top.conj()) - r_d) ** 2))
        gamma = near2 + gamma_frac * (slack2 - near2)
        if not 0.0 < gamma < slack2:
            return
        cfg = small_config(n_tx=n, k=k, beampattern_tol=gamma)
        s = solve_relaxed(rows, cfg)
        p = factor_precoder(s, cfg)
        assert p.p.shape[0] == n
        assert 1 <= p.p.shape[1] <= k and p.p.any(axis=0).all()
        assert abs(p.power() - cfg.power_budget) <= 1e-12 * cfg.power_budget
        # tested inside the ball on the KKT path; on the slack path the
        # factor's Gram matrix is S, which is inside, up to rounding
        gram = p.p @ p.p.conj().T
        slack = 1e-12 if s.factor is not None else 0.0
        assert np.sum(np.abs(gram - r_d) ** 2) <= cfg.beampattern_tol * (1 + slack)
        value = precoder_objective(p, omega)
        assert value >= float(np.real(np.vdot(f0, omega @ f0))) * (1 - 1e-12)
        bound = (cfg.power_budget * np.linalg.eigvalsh(omega)[-1]
                 if s.kkt_scale is None
                 else relaxed_dual_bound(rows, cfg, s.kkt_scale))
        assert value <= bound * (1 + 1e-12)
        w = np.linalg.eigvalsh(s.s)
        if np.count_nonzero(w > 1e-12 * cfg.power_budget) <= k:
            assert value == pytest.approx(relaxed_objective(s, omega), rel=1e-9)


class TestBeampatternTarget:
    def test_default_target_feasible(self):
        validate_beampattern_target(SceneConfig())

    def test_cached_target_is_shared_read_only(self):
        # the solvers read one cached R_D per scene; callers get a copy
        cfg = SceneConfig()
        r_d = default_beampattern_target(cfg)
        r_d[:] = 0.0
        shared = precoder._target(cfg).r_d
        assert not shared.flags.writeable
        np.testing.assert_array_equal(default_beampattern_target(cfg), shared)
        assert float(np.trace(shared).real) == pytest.approx(cfg.power_budget)

    @pytest.mark.parametrize("p_t", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    @pytest.mark.parametrize("mix", np.linspace(0.0, 1.0, 11))
    def test_default_target_psd_with_budget_trace(self, mix, n, p_t):
        # a convex combination of two trace-P_T PSD matrices needs no clamp
        cfg = SceneConfig(n_tx=n, n_rx=n, power_budget=p_t,
                          beampattern_mix=float(mix))
        r_d = default_beampattern_target(cfg)
        assert np.linalg.eigvalsh(hermitize(r_d))[0] >= -1e-15 * p_t
        assert abs(float(np.trace(r_d).real) - p_t) <= 1e-15 * p_t

    def test_nearest_rank_formed_once_per_scene(self, monkeypatch):
        # S_K(0)'s dense N x N eigh runs once for the scene, however many
        # recoveries read it: the load check, the t = 0 end of each rank-K
        # search and the last resort; the precoders they return are the
        # callers' own
        cfg = small_config(n_tx=12, k=5, beampattern_tol=0.1,
                           beampattern_mix=0.37)
        precoder._target_of.cache_clear()
        dense, reads, eigh = [], [], np.linalg.eigh

        def spy(a, *args, **kwargs):
            if a.shape[-1] == cfg.n_tx:      # the forms' eigh are r <= K + 2
                dense.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        validate = precoder.validate_beampattern_target
        monkeypatch.setattr(precoder, "validate_beampattern_target",
                            lambda c: reads.append(c) or validate(c))
        # the target alone does not form S_K(0)
        r_d = default_beampattern_target(cfg)
        assert dense == []
        validate_beampattern_target(cfg)
        rng = np.random.default_rng(11)
        for _ in range(30):
            # 1 + K rows, as the effective channels give them
            rows, _ = omega_rows(complex_normal(rng, 1 + cfg.n_users, cfg.n_tx),
                                 rng.uniform(0.5, 2.0, 1 + cfg.n_users))
            p = factor_precoder(solve_relaxed(rows, cfg), cfg)
            assert np.sum(np.abs(p.p @ p.p.conj().T - r_d) ** 2) \
                <= cfg.beampattern_tol
        last = factor_precoder(RelaxedCovariance(r_d), cfg)
        assert last.p.flags.writeable
        assert len(reads) > 10
        assert dense == [(cfg.n_tx, cfg.n_tx)]

    def test_last_resort_is_a_copy_of_the_load_check_point(self):
        # with neither a factor nor an in-ball scale the precoder is S_K(0),
        # the point the load check returns, as the caller's own array
        cfg = small_config(n_tx=6, k=3, beampattern_tol=0.5)
        nearest = validate_beampattern_target(cfg)
        assert isinstance(nearest, precoder.KktPoint) and nearest.t == 0.0
        assert not nearest.x.flags.writeable
        f = nearest.x
        assert nearest.dist2 == float(np.sum(np.abs(
            f @ f.conj().T - default_beampattern_target(cfg)) ** 2))
        p = factor_precoder(
            RelaxedCovariance(default_beampattern_target(cfg)), cfg).p
        assert p.flags.writeable and not np.shares_memory(p, f)
        np.testing.assert_array_equal(p, f)
        assert validate_beampattern_target(cfg) is nearest


_CHECK_PEAK = """
import json, sys
from isacopt import harness

def peak():
    with open("/proc/self/status") as fh:
        return next(1024 * int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))

before = peak()
spec = harness.load_experiment_spec(
    sys.argv[1], {"scene": {"n_tx": 1024, "n_rx": 1024, "n_users": 5}})
print(json.dumps({"n_tx": spec.scene.n_tx, "n_users": spec.scene.n_users,
                  "grown_bytes": peak() - before}))
"""


class TestTargetCheckBytes:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads VmHWM from /proc")
    def test_load_stays_within_the_counted_bytes(self):
        # 1024 antennas load; the load's peak growth, almost all of it the
        # beampattern check's, was 87 MB against the 105 MB counted.  Half
        # the count bounds it below: the count is not loose.
        root = Path(__file__).resolve().parents[1]
        src = str(Path(precoder.__file__).resolve().parent.parent)
        env = {**os.environ, **dict.fromkeys(harness.BLAS_THREAD_VARS, "1"),
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", _CHECK_PEAK,
             str(root / "configs/convergence.json")],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        out = json.loads(done.stdout)
        counted = precoder.target_check_bytes(out["n_tx"], out["n_users"])
        assert out["n_tx"] == 1024
        assert counted / 2 <= out["grown_bytes"] <= counted
