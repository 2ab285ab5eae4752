import logging

import numpy as np
import pytest

import isacopt.irs as irs
from isacopt import (ConfigError, SceneConfig, SolverOptions, alternating,
                     default_beampattern_target, make_channels,
                     run_alternating, weighted_snr)

from conftest import random_scene, small_config
from reference import objective_snapshot


def tiny_scene(seed=0, **kwargs):
    cfg = small_config(l_rows=2, l_cols=2, n_tx=3, k=2, **kwargs)
    ch = make_channels(cfg, np.random.default_rng(seed))
    return cfg, ch


class TestSolverOptions:
    def test_defaults_valid(self):
        opts = SolverOptions()
        assert opts.eps_rel == pytest.approx(0.01)
        assert opts.t_max == 20

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            SolverOptions(eps_rel=0.0)
        with pytest.raises(ConfigError):
            SolverOptions(t_max=0)
        with pytest.raises(ConfigError):
            SolverOptions(irs_method="magic")

    @pytest.mark.parametrize("field,value", [
        ("eps_rel", float("nan")), ("eps_rel", float("inf")),
        ("inner_tol", float("nan"))])
    def test_rejects_non_finite_floats(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SolverOptions(**{field: value})

    @pytest.mark.parametrize("field", ["inner_tol"])
    def test_rejects_negative_tolerances(self, field):
        with pytest.raises(ConfigError, match=field):
            SolverOptions(**{field: -1.0})
        assert getattr(SolverOptions(**{field: 0.0}), field) == 0.0

    @pytest.mark.parametrize("field,value", [
        ("t_max", 2.5), ("inner_max", True)])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SolverOptions(**{field: value})

    def test_accepts_numpy_integers(self):
        assert SolverOptions(t_max=np.int64(3)).t_max == 3


class TestObjectiveSnapshot:
    def test_equal_snrs_give_same_value(self, rng):
        cfg, ch, p, theta = random_scene(rng, beta=0.5)
        g, s_r, s_c = objective_snapshot(p, theta, ch, cfg)
        assert g == pytest.approx(0.5 * s_r + 0.5 * s_c, rel=1e-12)

    def test_recombination_identity(self, rng):
        cfg, ch, p, theta = random_scene(rng, beta=0.9)
        g, s_r, s_c = objective_snapshot(p, theta, ch, cfg)
        assert g == pytest.approx(cfg.beta * s_r + (1 - cfg.beta) * s_c,
                                  rel=1e-12)

    def test_matches_weighted_snr(self, rng):
        cfg, ch, p, theta = random_scene(rng)
        g, _, _ = objective_snapshot(p, theta, ch, cfg)
        assert g == pytest.approx(weighted_snr(p, theta, ch, cfg), rel=1e-12)

    @pytest.mark.parametrize("method", ["minorization", "manifold"])
    def test_run_reports_the_snapshot_of_its_output(self, method):
        cfg, ch = tiny_scene()
        p, theta, trace = run_alternating(
            ch, cfg, opts=SolverOptions(t_max=4, irs_method=method))
        assert objective_snapshot(p, theta, ch, cfg) == (
            trace.objective_per_outer[-1], trace.snr_radar_per_outer[-1],
            trace.snr_comm_per_outer[-1])


class TestRunAlternating:
    def test_single_iteration_when_t_max_one(self):
        cfg, ch = tiny_scene()
        p, theta, trace = run_alternating(ch, cfg, opts=SolverOptions(t_max=1))
        assert len(trace.objective_per_outer) == 1
        assert trace.terminated_by == "t_max"

    def test_trace_lengths_consistent(self):
        cfg, ch = tiny_scene()
        _, _, trace = run_alternating(ch, cfg, opts=SolverOptions(t_max=5))
        n = len(trace.objective_per_outer)
        assert len(trace.snr_radar_per_outer) == n
        assert len(trace.snr_comm_per_outer) == n
        assert len(trace.wall_time_per_stage) == n
        assert all(np.isfinite(trace.objective_per_outer))
        assert all(g >= 0 for g in trace.objective_per_outer)

    def test_monotone_objective_with_defaults(self):
        for seed in range(5):
            cfg, ch = tiny_scene(seed=seed)
            _, _, trace = run_alternating(ch, cfg, opts=SolverOptions())
            objs = trace.objective_per_outer
            for a, b in zip(objs, objs[1:]):
                assert b >= a - 1e-6 * abs(a)

    def test_randomized_precoder_below_relaxed_bound(self):
        cfg, ch = tiny_scene()
        _, _, trace = run_alternating(ch, cfg, opts=SolverOptions(t_max=6))
        for po, rb in zip(trace.precoder_obj_per_outer,
                          trace.relaxed_bound_per_outer):
            assert po <= rb * (1 + 1e-9)

    @pytest.mark.parametrize("gamma", [0.3, 0.4, 0.5])
    def test_binding_ball_bound_holds(self, gamma):
        # the relaxed bound must bound every recovered precoder when the
        # beampattern ball binds, which needs an exact relaxed solve
        for seed in range(5):
            cfg = SceneConfig(beta=0.5, beampattern_tol=gamma)
            ch = make_channels(cfg, np.random.default_rng(seed))
            _, _, trace = run_alternating(ch, cfg, opts=SolverOptions())
            for po, rb in zip(trace.precoder_obj_per_outer,
                              trace.relaxed_bound_per_outer):
                assert po <= rb * (1 + 1e-9)

    @pytest.mark.parametrize("gamma", [0.1, 0.2])
    def test_binding_recovery_is_near_the_certified_bound(self, gamma):
        # the deterministic rank-K recovery keeps every outer iteration's
        # precoder within 2 % of the certified relaxation bound
        for seed in range(5):
            cfg = SceneConfig(beta=0.5, beampattern_tol=gamma)
            ch = make_channels(cfg, np.random.default_rng(seed))
            _, _, trace = run_alternating(ch, cfg, opts=SolverOptions())
            for po, rb in zip(trace.precoder_obj_per_outer,
                              trace.relaxed_bound_per_outer):
                assert po >= 0.98 * rb

    def test_termination_rule_fires_on_flat_objective(self, monkeypatch):
        # a constant objective must stop at the first possible check (t = 2)
        import isacopt.alternating as alt
        from isacopt.irs import SurrogateFactors

        cfg, ch = tiny_scene()

        def constant_snapshot(self, theta, quartic=None):
            return 42.0, 42.0, 42.0

        monkeypatch.setattr(SurrogateFactors, "value", constant_snapshot)
        _, _, trace = alt.run_alternating(ch, cfg, opts=SolverOptions(t_max=9))
        assert trace.terminated_by == "tolerance"
        assert len(trace.objective_per_outer) == 2

    def test_power_budget_met(self):
        cfg, ch = tiny_scene()
        p, _, trace = run_alternating(ch, cfg, opts=SolverOptions(t_max=4))
        assert p.power() == pytest.approx(cfg.power_budget, rel=1e-9)

    def test_binding_ball_completes_with_feasible_precoder(self):
        # gamma = 0.1 on the default scene rejects every randomized
        # candidate; the truncated target (at 0.089) keeps the run going
        cfg = SceneConfig(beampattern_tol=0.1)
        ch = make_channels(cfg, np.random.default_rng(0))
        p, _, trace = run_alternating(ch, cfg, opts=SolverOptions())
        r_d = default_beampattern_target(cfg)
        assert p.power() == pytest.approx(cfg.power_budget, rel=1e-9)
        assert np.sum(np.abs(p.p @ p.p.conj().T - r_d) ** 2) <= 0.1
        assert trace.objective_per_outer[-1] > 0

    @pytest.mark.parametrize("defect,message", [
        ("not_psd", "not positive semidefinite"),
        ("wrong_trace", "power budget")])
    def test_infeasible_target_rejected_before_first_iteration(
            self, monkeypatch, defect, message):
        cfg, ch = tiny_scene()
        r_d = (cfg.power_budget * np.diag([2.0, 0.0, -1.0]).astype(complex)
               if defect == "not_psd"
               else 2.0 * default_beampattern_target(cfg))

        def no_iteration(*args):
            raise AssertionError("an outer iteration started")

        monkeypatch.setattr(alternating, "build_omega", no_iteration)
        with pytest.raises(ConfigError, match=message):
            run_alternating(ch, cfg, r_d=r_d)

    def test_determinism_given_seed(self):
        cfg, ch = tiny_scene()
        runs = [run_alternating(ch, cfg, opts=SolverOptions())
                for _ in range(2)]
        assert runs[0][2].objective_per_outer == runs[1][2].objective_per_outer
        np.testing.assert_array_equal(runs[0][0].p, runs[1][0].p)
        np.testing.assert_array_equal(runs[0][1].theta, runs[1][1].theta)

    def test_manifold_method_runs(self):
        cfg, ch = tiny_scene()
        opts = SolverOptions(t_max=3, irs_method="manifold", inner_max=50)
        _, _, trace = run_alternating(ch, cfg, opts=opts)
        assert len(trace.objective_per_outer) >= 1

    def test_failed_line_search_is_recorded(self, monkeypatch, caplog):
        # with no halvings allowed every Armijo search fails at once
        cfg, ch = tiny_scene()
        opts = SolverOptions(t_max=3, irs_method="manifold", inner_max=50)
        _, _, clean = run_alternating(ch, cfg, opts=opts)
        assert clean.line_search_failures == []
        monkeypatch.setattr(irs, "_MAX_HALVINGS", 0)
        with caplog.at_level(logging.WARNING, logger=alternating.__name__):
            _, _, trace = run_alternating(ch, cfg, opts=opts)
        outers = list(range(1, len(trace.objective_per_outer) + 1))
        assert trace.line_search_failures == outers
        assert sum("line search" in r.getMessage()
                   for r in caplog.records) == len(outers)

    def test_random_theta_init(self):
        cfg, ch = tiny_scene()
        opts = SolverOptions(t_max=2, theta_init="random")
        _, theta, _ = run_alternating(ch, cfg, opts=opts,
                                      rng=np.random.default_rng(11))
        assert np.max(np.abs(np.abs(theta.theta) - 1.0)) < 1e-9

    def test_paper_table_configuration_terminates(self):
        cfg = SceneConfig(beta=0.5)
        ch = make_channels(cfg, np.random.default_rng(0))
        _, _, trace = run_alternating(ch, cfg, opts=SolverOptions())
        assert len(trace.objective_per_outer) <= 20
        assert trace.terminated_by in ("tolerance", "t_max")

    def test_inner_loop_mode(self):
        cfg, ch = tiny_scene()
        opts = SolverOptions(t_max=3, irs_inner=True, inner_max=50)
        _, _, trace = run_alternating(ch, cfg, opts=opts)
        assert len(trace.objective_per_outer) >= 1
