import dataclasses
import json
import logging
import tracemalloc

import numpy as np
import pytest

import isacopt.irs as irs
from isacopt import (ConfigError, IrsPhase, MonotonicityError, Precoder,
                     SceneConfig, SolverOptions, alternating,
                     default_beampattern_target, factor_precoder,
                     load_experiment_spec, make_channels, run_alternating,
                     run_experiment, solve_irs_minorization, solve_relaxed,
                     weighted_snr)
from isacopt.objective import ChannelConstants

from conftest import random_scene, scored_start, small_config
from reference import objective_snapshot, plain_linearization


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
        ("eps_rel", 10 ** 400), ("eps_rel", 0.01 + 0j)])
    def test_rejects_non_finite_floats(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SolverOptions(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("t_max", 2.5), ("inner_max", True),
        ("t_max", 10 ** 400), ("t_max", 2 ** 63),
        ("inner_max", 10 ** 400), ("inner_max", 2 ** 63)])
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
    @pytest.mark.parametrize("name, cut", [
        ("g", np.s_[:3]), ("h", np.s_[:, :3]), ("f", np.s_[:1]),
        ("steer", np.s_[:3])])
    def test_inconsistent_channel_shapes_raise(self, name, cut):
        # the one check of the channels' shapes on the solver path, in
        # ChannelConstants, which the run forms before its first iteration
        cfg, ch = tiny_scene()
        bad = dataclasses.replace(ch, **{name: getattr(ch, name)[cut]})
        with pytest.raises(ConfigError,
                           match="channel dimensions are inconsistent"):
            ChannelConstants(bad, cfg)
        with pytest.raises(ConfigError,
                           match="channel dimensions are inconsistent"):
            run_alternating(bad, cfg, opts=SolverOptions(t_max=1))

    def test_channels_of_another_scene_raise(self):
        cfg, _ = tiny_scene()
        other = make_channels(small_config(l_rows=3, l_cols=2),
                              np.random.default_rng(0))
        with pytest.raises(ConfigError,
                           match="channel dimensions are inconsistent"):
            run_alternating(other, cfg, opts=SolverOptions(t_max=1))

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

    def test_slack_bound_is_certified(self):
        # on the closed-form path the recorded bound is slack_bound, which
        # no recovered precoder's computed objective exceeds, with no slack
        # (the rounded tr(S Omega) it replaced was exceeded by up to 2e-15
        # relative on over a third of these outer iterations)
        outers = 0
        for beta in (0.01, 0.5, 0.99):
            cfg = SceneConfig(beta=beta)
            for seed in range(40):
                ch = make_channels(cfg, np.random.default_rng(seed))
                _, _, trace = run_alternating(ch, cfg)
                for po, rb in zip(trace.precoder_obj_per_outer,
                                  trace.relaxed_bound_per_outer):
                    assert po <= rb, (beta, seed)
                outers += len(trace.precoder_obj_per_outer)
        assert outers > 120

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
        from isacopt.objective import EffectiveChannels, ScoredPoint

        cfg, ch = tiny_scene()

        def constant_score(self, p_nz):
            return ScoredPoint(self.theta.theta, 42.0, self, 42.0, 42.0,
                               self.rows @ p_nz)

        # the loop and the phase step both score through score
        monkeypatch.setattr(EffectiveChannels, "score", constant_score)
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

    def test_determinism_given_seed(self):
        cfg, ch = tiny_scene()
        (p1, theta1, trace1), (p2, theta2, trace2) = (
            run_alternating(ch, cfg, opts=SolverOptions()) for _ in range(2))
        assert trace1.objective_per_outer == trace2.objective_per_outer
        np.testing.assert_array_equal(p1.p, p2.p)
        np.testing.assert_array_equal(theta1.theta, theta2.theta)

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
        opts = SolverOptions(t_max=3, inner_max=50)
        _, _, trace = run_alternating(ch, cfg, opts=opts)
        assert len(trace.objective_per_outer) >= 1

    def test_inner_max_reaches_both_phase_solvers(self, phase_solver_calls):
        cfg, ch = tiny_scene()
        for method in alternating.IRS_METHODS:
            run_alternating(ch, cfg, opts=SolverOptions(
                t_max=2, inner_max=3, irs_method=method))
        assert {name for name, _ in phase_solver_calls} == {
            "solve_irs_minorization", "solve_irs_manifold"}
        assert all(inner_max == 3 for _, inner_max in phase_solver_calls)


class TestSlackOuterIteration:
    """One outer iteration on the slack path does only the theta- and
    P-dependent work: three small LAPACK calls and no dense matrix."""

    def test_three_lapack_calls(self, monkeypatch):
        # the (1 + K) x (1 + K) eigh of the top eigenpair, the Cholesky
        # factor of the anchor's Gram matrix and the anchor's eigvalsh
        cfg = SceneConfig()
        ch = make_channels(cfg, np.random.default_rng(3))
        calls = []
        for name in ("eigh", "eigvalsh", "cholesky", "qr", "eig", "svd"):
            fn = getattr(np.linalg, name)

            def spy(*args, _fn=fn, _name=name, **kwargs):
                calls.append((_name, args[0].shape))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        _, _, trace = run_alternating(ch, cfg, opts=SolverOptions(t_max=1))
        m = 2 + cfg.n_users
        assert sorted(calls) == [
            ("cholesky", (m, m)), ("eigh", (1 + cfg.n_users,) * 2),
            ("eigvalsh", (2 * m, 2 * m))]
        assert len(trace.objective_per_outer) == 1

    def test_no_dense_matrix(self):
        # N = 96 antennas and L = 144 elements: no N x N, L x L or L x N
        # array is formed in the precoder stage, the scoring or the phase
        # step (the target R_D is cached per scene before the loop starts)
        cfg = small_config(l_rows=12, l_cols=12, n_tx=96, k=2,
                           beampattern_tol=10.0)
        ch = make_channels(cfg, np.random.default_rng(5))
        consts = ChannelConstants(ch, cfg)
        theta = IrsPhase(np.exp(2j * np.pi * np.random.default_rng(6).random(
            cfg.n_irs)))
        channels = consts.channels(theta)
        default_beampattern_target(cfg)
        tracemalloc.start()
        try:
            relaxed = solve_relaxed(channels, cfg)
            p = factor_precoder(relaxed, cfg)
            solve_irs_minorization(p, channels.score(p.nonzero_columns()),
                                   inner_max=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert relaxed.factor is not None          # the slack path
        assert peak < cfg.n_tx ** 2 * 16 / 2

    def test_covariance_formed_on_demand_is_bit_equal(self):
        cfg = SceneConfig()
        ch = make_channels(cfg, np.random.default_rng(7))
        channels = ChannelConstants(ch, cfg).channels(
            IrsPhase(np.ones(cfg.n_irs, dtype=complex)))
        relaxed = solve_relaxed(channels, cfg)
        u = channels.top_eigenpair()[1][:, np.newaxis]
        np.testing.assert_array_equal(
            relaxed.s, cfg.power_budget * (u @ u.conj().T))
        np.testing.assert_array_equal(
            relaxed.factor, np.sqrt(cfg.power_budget) * u)

    @pytest.mark.parametrize("gamma", [10.0, 0.3])
    def test_leaves_no_cache_on_the_channels(self, gamma):
        # the run's constants live in the run, not on the ChannelSet that
        # callers keep (a cache there would grow with every kept input)
        cfg = SceneConfig(beampattern_tol=gamma)
        ch = make_channels(cfg, np.random.default_rng(8))
        before = dict(vars(ch))
        run_alternating(ch, cfg, opts=SolverOptions(t_max=3))
        after = vars(ch)
        assert after.keys() == before.keys()
        assert all(after[k] is v for k, v in before.items())

    def test_phase_step_starts_from_the_scoring_products(self):
        # the products Y = W P_nz that scored the recovered precoder are the
        # ones the phase step starts from, so the run's first objective is
        # that of a phase solve started from scratch, bit for bit
        cfg = SceneConfig(beta=0.5)
        ch = make_channels(cfg, np.random.default_rng(9))
        theta = IrsPhase(np.ones(cfg.n_irs, dtype=complex))
        p, _, trace = run_alternating(ch, cfg, opts=SolverOptions(t_max=1))
        channels = ChannelConstants(ch, cfg).channels(theta)
        own = factor_precoder(solve_relaxed(channels, cfg), cfg)
        np.testing.assert_array_equal(own.p, p.p)
        _, inner = solve_irs_minorization(
            own, scored_start(theta, own, ch, cfg), inner_max=1)
        assert inner.end.g == trace.objective_per_outer[0]
        p_nz = own.p.compress(own.p.any(axis=0), axis=1)
        assert channels.score(p_nz).g == trace.precoder_obj_per_outer[0]


class TestLoopGuards:
    """The guards of the loop that shipped configs never trip: an inner
    map that dips, and a recovered precoder that scores below the
    incumbent."""

    @staticmethod
    def plain_maps(monkeypatch):
        # the paper's plain linearization, with no anchor: not ascent-safe
        # on radar-heavy scenes (TestMinorizationSolver hunts one)
        monkeypatch.setattr(
            irs.SurrogateFactors, "linearize",
            lambda factors, point: plain_linearization(factors, point.theta))

    def test_inner_dip_raises_through_the_loop(self, monkeypatch):
        self.plain_maps(monkeypatch)
        cfg, ch, p, theta0 = random_scene(np.random.default_rng([99, 1]),
                                          l_rows=2, l_cols=3, beta=0.97,
                                          alpha=1.0 + 0.0j)
        with pytest.raises(MonotonicityError, match="^objective decreased"):
            solve_irs_minorization(p, scored_start(theta0, p, ch, cfg),
                                   inner_max=150)
        with pytest.raises(MonotonicityError,
                           match="^outer iteration 1: objective decreased"):
            run_alternating(ch, cfg, opts=SolverOptions(inner_max=150))

    def test_inner_dip_lands_in_the_sidecar(self, tmp_path, monkeypatch):
        self.plain_maps(monkeypatch)
        spec = load_experiment_spec({
            "kind": "convergence",
            "scene": {"n_tx": 3, "n_rx": 3, "n_users": 2, "irs_rows": 2,
                      "irs_cols": 3, "alpha_mag": 1.0},
            "solver": {"t_max": 3, "inner_max": 150}, "beta_values": [0.97],
            "trials": 2, "output_dir": str(tmp_path)})
        result = run_experiment(spec)
        meta = json.loads(
            (tmp_path / "convergence_beta0.97.csv.meta.json").read_text())
        assert meta["trial_errors"] == result.trial_errors
        assert [(e["point"], e["trial"]) for e in meta["trial_errors"]] \
            == [(0, 0), (0, 1)]
        for error in meta["trial_errors"]:
            assert error["error"].startswith(
                "MonotonicityError: outer iteration 1: objective decreased")

    def test_recovered_precoder_below_incumbent_is_dropped(self,
                                                           monkeypatch):
        # the second recovery returns its precoder at a millionth of its
        # power, which scores below the incumbent
        recovered = []

        def weak_second(s, cfg):
            p = factor_precoder(s, cfg)
            recovered.append(p)
            return Precoder(1e-3 * p.p) if len(recovered) == 2 else p

        monkeypatch.setattr(alternating, "factor_precoder", weak_second)
        cfg, ch = tiny_scene(seed=3)
        p, _, trace = run_alternating(
            ch, cfg, opts=SolverOptions(t_max=3, eps_rel=1e-12))
        assert len(recovered) == 3
        assert trace.precoder_dips == [2]
        # the incumbent's score stands in for the dropped one
        assert trace.precoder_obj_per_outer[1] == trace.objective_per_outer[0]
        assert p is recovered[2]
        g = trace.objective_per_outer
        assert all(b >= a for a, b in zip(g, g[1:]))
