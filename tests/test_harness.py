import json
import os
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacopt import (ConfigError, SceneConfig, alternating,
                     default_beampattern_target, harness,
                     load_experiment_spec, make_channels, run_alternating,
                     run_experiment)
from isacopt.harness import (aggregate_convergence, config_hash, format_cell,
                             near_square_grid, read_csv_rows,
                             solver_options_from_dict)
from isacopt.precoder import target_check_bytes

def small_scene_dict():
    return {"n_tx": 3, "n_rx": 3, "n_users": 2, "irs_rows": 2, "irs_cols": 2,
            "alpha_mag": 0.1}


def make_spec(tmp_path, **overrides):
    base = {
        "kind": "convergence",
        "scene": small_scene_dict(),
        "solver": {"t_max": 4},
        "beta_values": [0.5],
        "trials": 3,
        "master_seed": 42,
        "output_dir": str(tmp_path / "out"),
    }
    base.update(overrides)
    return load_experiment_spec(base)


class TestSpecLoading:
    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys"):
            make_spec(tmp_path, bogus=1)

    def test_kind_validated(self, tmp_path):
        with pytest.raises(ConfigError, match="kind"):
            make_spec(tmp_path, kind="nope")

    def test_sweep_required(self, tmp_path):
        with pytest.raises(ConfigError, match="beta_values"):
            make_spec(tmp_path, beta_values=[])
        with pytest.raises(ConfigError, match="l_values"):
            make_spec(tmp_path, kind="scaling", l_values=[])
        with pytest.raises(ConfigError, match="n_g_grid"):
            make_spec(tmp_path, kind="ratio", l_values=[4], n_g_grid=[0])
        with pytest.raises(ConfigError, match="l_values"):
            make_spec(tmp_path, kind="scaling", l_values=[4.7])
        with pytest.raises(ConfigError, match="beta_values"):
            make_spec(tmp_path, beta_values=[1.5])
        with pytest.raises(ConfigError, match=r"beta_values\[1\]"):
            make_spec(tmp_path, beta_values=[0.5, 10 ** 400])

    def test_every_kind_reads_named_sweeps(self):
        assert tuple(harness.KINDS) == ("convergence", "scaling", "ratio")
        for reads, run in harness.KINDS.values():
            assert reads and set(reads) <= set(harness.SWEEP_KEYS)
            assert callable(run)

    # each read sweep holds distinct points, and each other sweep is empty
    @pytest.mark.parametrize("overrides,message", [
        ({"kind": "scaling", "beta_values": [], "l_values": [8, 8]},
         r"l_values\[0\] = 8 and l_values\[1\] = 8 share the value 8"),
        ({"kind": "ratio", "beta_values": [], "l_values": [4],
          "n_g_grid": [10, 20, 10]},
         r"n_g_grid\[0\] = 10 and n_g_grid\[2\] = 10 share the value 10"),
        ({"kind": "ratio", "l_values": [4], "n_g_grid": [10]},
         "a ratio experiment does not read beta_values, which must be empty"),
        ({"kind": "scaling", "beta_values": [], "l_values": [4],
          "n_g_grid": [10]},
         "a scaling experiment does not read n_g_grid"),
        ({"l_values": [4]}, "a convergence experiment does not read l_values"),
    ], ids=["l_repeated", "n_g_repeated", "ratio_beta", "scaling_n_g",
            "convergence_l"])
    def test_sweep_table(self, tmp_path, overrides, message):
        with pytest.raises(ConfigError, match=message):
            make_spec(tmp_path, **overrides)

    def test_ratio_at_beta_one_rejected(self, tmp_path):
        # A = U3 carries the weight 1 - beta, so its bound is 0 at beta = 1
        scene = {**small_scene_dict(), "beta": 1}
        with pytest.raises(ConfigError, match="scene.beta = 1: "):
            make_spec(tmp_path, kind="ratio", beta_values=[], l_values=[4],
                      n_g_grid=[5], scene=scene)
        # the other studies take beta = 1
        make_spec(tmp_path, beta_values=[1.0])
        make_spec(tmp_path, kind="scaling", beta_values=[], l_values=[4],
                  scene=scene)

    def test_target_counted_before_its_check(self, tmp_path, monkeypatch):
        checks = []
        monkeypatch.setattr(harness, "validate_beampattern_target",
                            checks.append)
        need = target_check_bytes(3, 2)
        monkeypatch.setattr(harness, "_physical_memory", lambda: need - 1)
        with pytest.raises(ConfigError,
                           match="n_tx = 3, n_users = 2: the beampattern "
                                 "check's arrays take .* do not fit in"):
            make_spec(tmp_path)
        assert checks == []
        monkeypatch.setattr(harness, "_physical_memory", lambda: need)
        assert make_spec(tmp_path).scene in checks

    def test_user_count_counted_in_a_trial(self, tmp_path, monkeypatch):
        # the phase step's Gram matrix has side 2 + n_users min(n_users,
        # n_tx): 2^14 users of 3 antennas take 36 GiB of it, though the
        # beampattern check takes under 6 MiB
        monkeypatch.setattr(harness, "_physical_memory", lambda: 8 << 30)
        scene = {**small_scene_dict(), "n_users": 2 ** 14}
        with pytest.raises(ConfigError,
                           match=r"irs_rows \* irs_cols = 4: a trial's arrays "
                                 r"at n_tx = 3, n_users = 16384 take"):
            make_spec(tmp_path, scene=scene)

    # a count must be an index numpy can take, at most 2**63 - 1
    @pytest.mark.parametrize("field", ["trials", "threads", "l_values",
                                       "n_g_grid"])
    @pytest.mark.parametrize("value", [0, 10 ** 400, 2 ** 63],
                             ids=["0", "10**400", "2**63"])
    def test_rejects_count_out_of_range(self, tmp_path, field, value):
        sweep = field in ("l_values", "n_g_grid")
        spec = {"kind": "ratio", "l_values": [4], "n_g_grid": [5],
                field: [4, value] if sweep else value}
        name = rf"{field}\[1\]" if sweep else field
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            make_spec(tmp_path, **spec)

    def test_master_seed_has_no_upper_bound(self, tmp_path):
        assert make_spec(tmp_path, master_seed=10 ** 400).master_seed \
            == 10 ** 400

    def test_eps_rel_db_suffix(self):
        opts = solver_options_from_dict({"eps_rel_db": -20})
        assert opts.eps_rel == pytest.approx(0.01)

    def test_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "kind": "scaling", "scene": small_scene_dict(), "l_values": [4],
            "output_dir": str(tmp_path)}))
        spec = load_experiment_spec(path)
        assert spec.kind == "scaling"
        assert spec.scene.n_tx == 3

    def test_config_hash_stable_and_sensitive(self, tmp_path):
        a = make_spec(tmp_path)
        b = make_spec(tmp_path)
        c = make_spec(tmp_path, master_seed=43)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_config_hash_ignores_output_dir_and_threads(self, tmp_path):
        a = make_spec(tmp_path)
        b = make_spec(tmp_path, output_dir=str(tmp_path / "elsewhere"),
                      threads=2)
        c = make_spec(tmp_path, master_seed=43)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# Every key is a SolverOptions field (checked below), so that no example is
# rejected for a removed key alone.
SOLVER_STRATEGIES = {
    "t_max": st.integers(1, 3),
    "inner_max": st.integers(1, 3),
    "irs_method": st.sampled_from(["minorization", "manifold"]),
}

# Scenes are valid apart from the ball, which can be too tight for a
# K-column precoder; sweep entries can be out of range or fractional.
SMALL_CONFIGS = st.fixed_dictionaries({
    "kind": st.sampled_from(["convergence", "scaling", "ratio"]),
    "scene": st.fixed_dictionaries({
        "n_tx": st.integers(1, 4), "n_users": st.integers(1, 3),
        "irs_rows": st.integers(1, 3), "irs_cols": st.integers(1, 3),
        "beta": st.floats(0.0, 1.0), "alpha_mag": _log_uniform(-3, 0),
        "power_budget": _log_uniform(-2, 2),
        "beampattern_tol": _log_uniform(-9, 4),
        "beampattern_mix": st.floats(0.0, 1.0)}),
    "solver": st.fixed_dictionaries(SOLVER_STRATEGIES),
    "beta_values": st.lists(st.one_of(st.floats(0.0, 1.0),
                                      st.floats(-0.5, 1.5)),
                            min_size=1, max_size=2),
    "l_values": st.lists(st.one_of(st.integers(1, 9), st.integers(-1, 9),
                                   st.floats(0.5, 9.5)),
                         min_size=1, max_size=2),
    "n_g_grid": st.lists(st.one_of(st.integers(1, 20), st.integers(-1, 20)),
                         min_size=1, max_size=2),
    "master_seed": st.integers(0, 2 ** 16),
})


class TestConfigProperty:
    def test_solver_strategies_are_solver_options(self):
        assert set(SOLVER_STRATEGIES) <= {
            f.name for f in fields(alternating.SolverOptions)}

    @settings(max_examples=40, deadline=None)
    @given(raw=SMALL_CONFIGS)
    def test_rejected_on_load_or_feasible(self, raw):
        # a config either fails when it loads, or every sweep point runs to
        # a finite precoder on the power budget and inside the ball
        # the sweeps the kind does not read are left out, as they must be
        raw = {key: value for key, value in raw.items()
               if key not in harness.SWEEP_KEYS
               or key in harness.KINDS[raw["kind"]][0]}
        scene = {**raw["scene"], "n_rx": raw["scene"]["n_tx"]}
        try:
            spec = load_experiment_spec({**raw, "scene": scene})
        except ConfigError:
            return
        cfgs = ([replace(spec.scene, beta=beta) for beta in spec.beta_values]
                if spec.kind == "convergence"
                else harness._surface_scenes(spec))
        rng = np.random.default_rng(spec.master_seed)
        for cfg in cfgs:
            ch = make_channels(cfg, rng)
            p, _, _ = run_alternating(ch, cfg, opts=spec.solver, rng=rng)
            assert np.all(np.isfinite(p.p))
            assert p.power() == pytest.approx(cfg.power_budget, rel=1e-9)
            r_d = default_beampattern_target(cfg)
            dist2 = float(np.sum(np.abs(p.p @ p.p.conj().T - r_d) ** 2))
            assert dist2 <= cfg.beampattern_tol * (1.0 + 1e-9)


class TestHelpers:
    def test_near_square_grid(self):
        assert near_square_grid(36) == (6, 6)
        assert near_square_grid(8) == (2, 4)
        assert near_square_grid(7) == (1, 7)
        assert near_square_grid(100) == (10, 10)

    def test_format_cell_roundtrip(self):
        for x in (0.1, 1e-17, 123456.789, float(np.float64(1) / 3)):
            assert float(format_cell(x)) == x
        assert format_cell(7) == "7"
        assert format_cell(True) == "1"

    def test_trial_inputs_draw_order(self):
        # the seeded draws of one trial, in order: alpha's phase, the
        # channels, then whatever the solver takes from the generator
        cfg, ch, rng = harness._trial_inputs(SceneConfig(alpha=0.3), 5, 2, 7)
        ref = np.random.default_rng(np.random.SeedSequence([5, 2, 7]))
        assert cfg.alpha == 0.3 * np.exp(2j * np.pi * ref.random())
        ref_ch = make_channels(cfg, ref)
        for name in ("g", "h", "f", "steer"):
            np.testing.assert_array_equal(getattr(ch, name), getattr(ref_ch, name))
        assert rng.random() == ref.random()

    def test_aggregate_convergence_carry_forward(self):
        rows = aggregate_convergence([[1.0, 2.0, 3.0], [2.0]])
        assert len(rows) == 3
        # second trial carries 2.0 forward
        assert rows[1][1] == pytest.approx((2.0 + 2.0) / 2)
        assert rows[2][1] == pytest.approx((3.0 + 2.0) / 2)
        assert all(r[2] >= 0 for r in rows)

    def test_aggregate_single_trial_zero_variance(self):
        rows = aggregate_convergence([[5.0, 6.0]])
        assert all(r[2] == 0.0 for r in rows)


class TestConvergenceExperiment:
    def test_outputs_and_aggregates(self, tmp_path):
        spec = make_spec(tmp_path, beta_values=[0.2, 0.8])
        result = run_experiment(spec)
        assert not result.trial_errors
        files = {Path(f).name for f in result.files}
        assert "convergence_beta0.2.csv" in files
        assert "convergence_raw_beta0.8.csv" in files
        for f in result.files:
            assert Path(f).exists()
            assert Path(f + ".meta.json").exists()
        # <= t_max iteration rows per aggregate file
        header, rows = read_csv_rows(tmp_path / "out" / "convergence_beta0.2.csv")
        assert header[0] == "iteration"
        assert len(rows) <= 4

    def test_aggregate_recomputes_from_raw_exactly(self, tmp_path):
        spec = make_spec(tmp_path)
        run_experiment(spec)
        out = tmp_path / "out"
        _, raw = read_csv_rows(out / "convergence_raw_beta0.5.csv")
        curves = {}
        for trial, _iteration, objective, _sr, _sc in raw:
            curves.setdefault(int(trial), []).append(float(objective))
        recomputed = aggregate_convergence([curves[k] for k in sorted(curves)])
        _, emitted = read_csv_rows(out / "convergence_beta0.5.csv")
        assert len(emitted) == len(recomputed)
        for row, expect in zip(emitted, recomputed):
            assert int(row[0]) == expect[0]
            assert float(row[1]) == expect[1]   # bit-exact float round-trip
            assert float(row[2]) == expect[2]
            assert int(row[4]) == expect[4]

    def test_metadata_sidecar_contents(self, tmp_path):
        spec = make_spec(tmp_path)
        result = run_experiment(spec)
        meta = json.loads(Path(result.files[0] + ".meta.json").read_text())
        assert meta["config_sha256"] == config_hash(spec)
        assert meta["config"]["trials"] == 3
        assert meta["columns"][0] in ("trial", "iteration", "stage")

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        spec_a = make_spec(tmp_path, output_dir=str(tmp_path / "a"))
        spec_b = make_spec(tmp_path, output_dir=str(tmp_path / "b"))
        run_experiment(spec_a)
        run_experiment(spec_b)
        name = "convergence_beta0.5.csv"
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
        raw = "convergence_raw_beta0.5.csv"
        assert (tmp_path / "a" / raw).read_bytes() \
            == (tmp_path / "b" / raw).read_bytes()


def _blas_env(cfg, ch, rng, opts, trial):
    """Trial worker reporting its BLAS thread variables; module-level so
    that spawned workers can import it."""
    return {var: os.environ.get(var) for var in harness.BLAS_THREAD_VARS}


class TestWorkers:
    @pytest.mark.parametrize("overrides", [
        {"kind": "convergence"},
        {"kind": "scaling", "beta_values": [], "l_values": [4, 9],
         "solver": {"t_max": 3, "inner_max": 30}},
        {"kind": "ratio", "beta_values": [], "l_values": [4, 9],
         "n_g_grid": [5, 20], "solver": {"t_max": 2}},
    ], ids=lambda overrides: overrides["kind"])
    def test_parallel_trials_match_serial(self, tmp_path, overrides):
        for out, threads in (("s", 1), ("p", 2)):
            run_experiment(make_spec(tmp_path, output_dir=str(tmp_path / out),
                                     threads=threads, **overrides))
        names = sorted(p.name for p in (tmp_path / "s").glob("*.csv")
                       if "_timing" not in p.name)
        assert len(names) == 2
        for name in names:
            assert (tmp_path / "s" / name).read_bytes() \
                == (tmp_path / "p" / name).read_bytes(), name

    def test_spawned_workers_start_with_one_blas_thread(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        # two usable CPUs, so that two workers start on any machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        before = dict(os.environ)
        spec = make_spec(tmp_path, trials=4, threads=2)
        [results], errors = harness._run_trials(_blas_env, spec, [spec.scene])
        assert errors == []
        assert results == [dict.fromkeys(harness.BLAS_THREAD_VARS, "1")] * 4
        assert dict(os.environ) == before

    @pytest.mark.parametrize("threads, trials, cpus, workers", [
        (1000, 3, 8, 3),     # one per trial
        (1000, 12, 3, 3),    # one per usable CPU
        (2, 12, 8, 2),       # as many as asked for
        (1000, 1, 8, 1),     # one trial: no pool
        (1000, 12, 1, 1),    # one CPU: no pool
        (1, 12, 8, 1),       # one asked for: no pool
    ])
    @pytest.mark.parametrize("affinity", [True, False])
    def test_pool_is_bounded_by_trials_and_cpus(self, tmp_path, monkeypatch,
                                                threads, trials, cpus,
                                                workers, affinity):
        # a stand-in pool records its size and maps inline: no process
        # starts, and at one worker the trials run here with no pool
        import concurrent.futures
        sizes = []

        class Pool:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        spec = make_spec(tmp_path, trials=trials, threads=threads)
        [results], errors = harness._run_trials(
            lambda cfg, ch, rng, opts, trial: trial, spec, [spec.scene])
        assert sizes == ([workers] if workers > 1 else [])
        assert results == list(range(trials)) and errors == []

    def test_trials_at_once_are_counted_against_memory(self, tmp_path,
                                                       monkeypatch):
        # two trials on two CPUs hold two trials' arrays at once: memory
        # for one rejects threads 2 and takes threads 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        scene = {**small_scene_dict(), "irs_rows": 200, "irs_cols": 200}
        one = harness._trial_bytes(200 * 200, 3, 2)
        assert target_check_bytes(3, 2) <= one
        monkeypatch.setattr(harness, "_physical_memory", lambda: 2 * one - 1)
        with pytest.raises(ConfigError,
                           match=r"irs_rows \* irs_cols = 40000: the arrays "
                                 r"of 2 trials at once at n_tx = 3, "
                                 r"n_users = 2 take"):
            make_spec(tmp_path, scene=scene, trials=2, threads=2)
        make_spec(tmp_path, scene=scene, trials=2, threads=1)     # fits

    def test_failed_draw_is_a_recorded_trial(self, tmp_path, monkeypatch):
        # a trial's inputs are drawn inside its guard: channels that fail
        # to draw on trial 1 of the first point skip that trial alone, and
        # every other trial keeps its rows
        spec = make_spec(tmp_path, beta_values=[0.2, 0.8],
                         output_dir=str(tmp_path / "ok"))
        assert not run_experiment(spec).trial_errors
        draw = harness.make_channels

        def failing(cfg, rng):
            if rng.bit_generator.seed_seq.entropy == [spec.master_seed, 0, 1]:
                raise ValueError("injected draw failure")
            return draw(cfg, rng)

        monkeypatch.setattr(harness, "make_channels", failing)
        result = run_experiment(replace(spec, output_dir=str(tmp_path / "bad")))
        assert [(e["point"], e["trial"], e["error"])
                for e in result.trial_errors] == [
            (0, 1, "ValueError: injected draw failure")]
        for tag, failed in (("beta0.2", [(0, 1)]), ("beta0.8", [])):
            for kind in ("", "_raw", "_timing"):
                meta = json.loads((tmp_path / "bad" / f"convergence{kind}_"
                                   f"{tag}.csv.meta.json").read_text())
                assert [(e["point"], e["trial"])
                        for e in meta["trial_errors"]] == failed
        _, ok_rows = read_csv_rows(tmp_path / "ok" / "convergence_raw_beta0.2.csv")
        _, bad_rows = read_csv_rows(
            tmp_path / "bad" / "convergence_raw_beta0.2.csv")
        assert bad_rows == [row for row in ok_rows if row[0] != "1"]
        assert sorted({row[0] for row in bad_rows}) == ["0", "2"]
        for name in ("convergence_raw_beta0.8.csv", "convergence_beta0.8.csv"):
            assert (tmp_path / "ok" / name).read_bytes() \
                == (tmp_path / "bad" / name).read_bytes(), name


class TestAggregateRecompute:
    def test_scaling_aggregate_matches_raw(self, tmp_path):
        spec = make_spec(tmp_path, kind="scaling", beta_values=[],
                         l_values=[4], trials=3,
                         solver={"t_max": 3, "inner_max": 30})
        run_experiment(spec)
        out = Path(spec.output_dir)
        _, raw = read_csv_rows(out / "scaling_raw.csv")
        _, agg = read_csv_rows(out / "scaling.csv")
        for row in agg:
            values = [float(r[3]) for r in raw
                      if r[0] == row[0] and r[1] == row[1]]
            arr = np.asarray(values)
            assert float(row[2]) == float(arr.mean())
            assert float(row[3]) == float(arr.var())

    def test_ratio_aggregate_matches_raw(self, tmp_path):
        spec = make_spec(tmp_path, kind="ratio", beta_values=[],
                         l_values=[4], n_g_grid=[5, 20], trials=3,
                         scene={**small_scene_dict(), "beta": 0.9},
                         solver={"t_max": 2})
        run_experiment(spec)
        out = Path(spec.output_dir)
        _, raw = read_csv_rows(out / "ratio_raw.csv")
        _, agg = read_csv_rows(out / "ratio.csv")
        for row in agg:
            values = [float(r[3]) for r in raw
                      if r[0] == row[0] and r[1] == row[1]]
            arr = np.asarray(values)
            assert float(row[2]) == float(arr.mean())
            assert float(row[3]) == float(arr.var())


class TestScalingExperiment:
    def test_two_methods_per_size(self, tmp_path):
        spec = make_spec(tmp_path, kind="scaling", beta_values=[],
                         l_values=[4], trials=2,
                         solver={"t_max": 3, "inner_max": 30})
        result = run_experiment(spec)
        assert not result.trial_errors
        _, rows = read_csv_rows(Path(spec.output_dir) / "scaling.csv")
        assert len(rows) == 2
        methods = {row[1] for row in rows}
        assert methods == {"minorization", "manifold"}

    def test_inner_max_reaches_both_methods(self, tmp_path,
                                            phase_solver_calls):
        spec = make_spec(tmp_path, kind="scaling", beta_values=[],
                         l_values=[4], trials=1,
                         solver={"t_max": 2, "inner_max": 7})
        assert not run_experiment(spec).trial_errors
        assert {name for name, _ in phase_solver_calls} == {
            "solve_irs_minorization", "solve_irs_manifold"}
        assert all(inner_max == 7 for _, inner_max in phase_solver_calls)
        meta = json.loads((Path(spec.output_dir) / "scaling.csv.meta.json")
                          .read_text())
        assert meta["config"]["solver"]["inner_max"] == 7
        assert "irs_inner" not in meta["config"]["solver"]

    def test_timing_separated_from_primary(self, tmp_path):
        spec = make_spec(tmp_path, kind="scaling", beta_values=[],
                         l_values=[4], trials=1,
                         solver={"t_max": 2, "inner_max": 20})
        run_experiment(spec)
        header, _ = read_csv_rows(Path(spec.output_dir) / "scaling.csv")
        assert not any("seconds" in col for col in header)
        t_header, _ = read_csv_rows(Path(spec.output_dir) / "scaling_timing.csv")
        assert any("seconds" in col for col in t_header)

    def test_reference_cost_column(self, tmp_path):
        spec = make_spec(tmp_path, kind="scaling", beta_values=[],
                         l_values=[4, 16], trials=1,
                         solver={"t_max": 2, "inner_max": 20})
        run_experiment(spec)
        _, rows = read_csv_rows(Path(spec.output_dir) / "scaling.csv")
        ref = {int(r[0]): float(r[6]) for r in rows}
        assert ref[4] == pytest.approx(1.0)
        assert ref[16] == pytest.approx(4.0 ** 3.5)


class TestRatioExperiment:
    def test_ratios_bounded_and_columns(self, tmp_path):
        spec = make_spec(tmp_path, kind="ratio", beta_values=[],
                         l_values=[4], n_g_grid=[5, 50], trials=3,
                         scene={**small_scene_dict(), "beta": 0.9},
                         solver={"t_max": 2})
        result = run_experiment(spec)
        assert not result.trial_errors
        _, rows = read_csv_rows(Path(spec.output_dir) / "ratio.csv")
        assert len(rows) == 2
        for row in rows:
            assert 0.0 < float(row[2]) <= 1.0 + 1e-9

    def test_scalar_surface_ratio_is_one(self, tmp_path):
        spec = make_spec(tmp_path, kind="ratio", beta_values=[],
                         l_values=[1], n_g_grid=[3], trials=2,
                         scene={**small_scene_dict(),
                                "irs_rows": 1, "irs_cols": 1, "beta": 0.9},
                         solver={"t_max": 2})
        run_experiment(spec)
        _, rows = read_csv_rows(Path(spec.output_dir) / "ratio.csv")
        assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-9)
