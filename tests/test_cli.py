import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import isacopt
from isacopt import harness
from isacopt.cli import _build_parser, main
from isacopt.harness import read_csv_rows

_CONVERGENCE_TRIAL = harness._convergence_trial


def _seeded_point(rng) -> int:
    """The sweep point a trial's generator was seeded for: the harness
    seeds it with (master seed, point, trial)."""
    return rng.bit_generator.seed_seq.entropy[1]


def _fails_on_point0_trial1(cfg, ch, rng, opts, trial):
    """Convergence worker that raises on trial 1 of the first sweep point;
    module-level so that spawned workers can import it."""
    if (_seeded_point(rng), trial) == (0, 1):
        raise ValueError("injected failure")
    return _CONVERGENCE_TRIAL(cfg, ch, rng, opts, trial)


def write_config(tmp_path, **overrides):
    cfg = {
        "kind": "convergence",
        "scene": {"n_tx": 3, "n_rx": 3, "n_users": 2, "irs_rows": 2,
                  "irs_cols": 2, "alpha_mag": 0.1},
        "solver": {"t_max": 3},
        "beta_values": [0.5],
        "trials": 2,
        "master_seed": 1,
        "output_dir": str(tmp_path / "default_out"),
    }
    cfg.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRun:
    def test_successful_run(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "results"
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert any("convergence_beta0.5.csv" in line for line in printed)
        assert (out / "convergence_beta0.5.csv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failing_trial_is_skipped_and_recorded(self, tmp_path, capsys,
                                                   monkeypatch, threads):
        monkeypatch.setattr(harness, "_convergence_trial",
                            _fails_on_point0_trial1)
        config = write_config(tmp_path, beta_values=[0.5, 0.9], trials=3)
        out = tmp_path / "results"
        code = main(["run", "--config", str(config), "--out", str(out),
                     "--threads", threads])
        assert code == 0
        assert "point 0 trial 1: ValueError: injected failure" \
            in capsys.readouterr().err
        for tag, failed in (("beta0.5", [(0, 1)]), ("beta0.9", [])):
            for kind in ("", "_raw", "_timing"):
                meta = json.loads(
                    (out / f"convergence{kind}_{tag}.csv.meta.json").read_text())
                assert [(e["point"], e["trial"])
                        for e in meta["trial_errors"]] == failed
                assert all(e["error"] == "ValueError: injected failure"
                           and "injected failure" in e["traceback"]
                           for e in meta["trial_errors"])
        _, rows = read_csv_rows(out / "convergence_raw_beta0.5.csv")
        assert sorted({int(row[0]) for row in rows}) == [0, 2]
        _, rows = read_csv_rows(out / "convergence_raw_beta0.9.csv")
        assert sorted({int(row[0]) for row in rows}) == [0, 1, 2]

    def test_more_workers_than_jobs_write_what_one_writes(self, tmp_path):
        # one point of two trials on four workers: chunks of one trial, and
        # a process started per chunk, so two at most
        config = write_config(tmp_path)
        for threads in ("1", "4"):
            assert main(["run", "--config", str(config), "--out",
                         str(tmp_path / threads), "--threads", threads]) == 0
        names = sorted(p.name for p in (tmp_path / "1").iterdir()
                       if p.suffix == ".json" or "_timing" not in p.name)
        assert len(names) == 5          # two primary CSVs, three sidecars
        for name in names:
            one, four = ((tmp_path / t / name).read_bytes() for t in "14")
            if name.endswith(".meta.json"):
                # the same config, but for where it was written and how
                one, four = (json.loads(blob) for blob in (one, four))
                for meta in (one, four):
                    del meta["config"]["output_dir"], meta["config"]["threads"]
                assert one["trial_errors"] == []
            assert one == four, name

    # per kind: the overrides of a two-point sweep, and the CSVs whose
    # sidecars record the failures of its first point
    ALL_FAIL = {
        "convergence": ({"beta_values": [0.5, 0.9]},
                        ["convergence_beta0.5", "convergence_raw_beta0.5",
                         "convergence_timing_beta0.5"]),
        "scaling": ({"beta_values": [], "l_values": [4, 9],
                     "solver": {"t_max": 2, "inner_max": 20}},
                    ["scaling", "scaling_raw", "scaling_timing",
                     "scaling_raw_timing"]),
        "ratio": ({"beta_values": [], "l_values": [4, 9], "n_g_grid": [5],
                   "solver": {"t_max": 2}},
                  ["ratio", "ratio_raw"]),
    }

    @pytest.mark.parametrize("kind", sorted(ALL_FAIL))
    def test_point_whose_every_trial_fails_has_no_aggregate_row(
            self, tmp_path, capsys, monkeypatch, kind):
        worker = getattr(harness, f"_{kind}_trial")

        def fails_on_point0(cfg, ch, rng, *args):
            if _seeded_point(rng) == 0:
                raise ValueError("injected failure")
            return worker(cfg, ch, rng, *args)

        monkeypatch.setattr(harness, f"_{kind}_trial", fails_on_point0)
        overrides, recording = self.ALL_FAIL[kind]
        config = write_config(tmp_path, kind=kind, **overrides)
        out = tmp_path / "results"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "2 trial(s) failed" in capsys.readouterr().err
        for name in recording:
            meta = json.loads((out / f"{name}.csv.meta.json").read_text())
            assert [(e["point"], e["trial"])
                    for e in meta["trial_errors"]] == [(0, 0), (0, 1)]
        # every aggregate row left is the second point's, over both trials
        n_trials = []
        for path in out.glob("*.csv"):
            header, rows = read_csv_rows(path)
            if "n_trials" in header:
                n_trials += [row[header.index("n_trials")] for row in rows]
        assert n_trials and set(n_trials) == {"2"}

    def test_seed_and_trials_override(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "results"
        code = main(["run", "--config", str(config), "--out", str(out),
                     "--seed", "9", "--trials", "1"])
        assert code == 0
        meta = json.loads(
            (out / "convergence_beta0.5.csv.meta.json").read_text())
        assert meta["config"]["master_seed"] == 9
        assert meta["config"]["trials"] == 1

    def test_overrides_build_the_spec_once(self, tmp_path, monkeypatch):
        checks = []
        monkeypatch.setattr(harness, "validate_beampattern_target",
                            checks.append)
        config = write_config(tmp_path, threads=3)
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out),
                     "--seed", "9", "--trials", "1", "--threads", "1"]) == 0
        assert len(checks) == 1
        meta = json.loads(
            (out / "convergence_beta0.5.csv.meta.json").read_text())
        assert (meta["config"]["output_dir"], meta["config"]["master_seed"],
                meta["config"]["trials"], meta["config"]["threads"]) == (
                    str(out), 9, 1, 1)

    @pytest.mark.parametrize("flags", [[], ["--out", ""]],
                             ids=["absent", "empty_out"])
    def test_absent_flag_keeps_config_value(self, tmp_path, flags):
        config = write_config(tmp_path, trials=1)
        assert main(["run", "--config", str(config)] + flags) == 0
        meta = json.loads((tmp_path / "default_out"
                           / "convergence_beta0.5.csv.meta.json").read_text())
        assert (meta["config"]["master_seed"], meta["config"]["trials"],
                meta["config"]["threads"]) == (1, 1, 1)

    def test_zero_trials_override_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out),
                     "--trials", "0"]) == 2
        assert "config error: trials must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("betas", [[0.1, 0.1000001], [0.5, 0.5]],
                             ids=["same_tag", "repeated"])
    @pytest.mark.parametrize("command", ["validate-config", "run"])
    def test_beta_values_sharing_a_file_tag_exit_2(self, tmp_path, capsys,
                                                   command, betas):
        config = write_config(tmp_path, beta_values=[0.9, *betas])
        out = tmp_path / "results"
        assert main([command, "--config", str(config)]
                    + (["--out", str(out)] if command == "run" else [])) == 2
        err = capsys.readouterr().err
        assert (f"config error: beta_values[1] = {betas[0]!r} and "
                f"beta_values[2] = {betas[1]!r} share the file tag "
                f"'beta{betas[0]:g}'") in err
        assert not out.exists()

    def test_output_path_that_is_a_file_exits_2_before_any_trial(
            self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "_convergence_trial",
                            lambda *args: calls.append(args))
        config = write_config(tmp_path)
        out = tmp_path / "results"
        out.write_text("taken")
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert calls == []
        assert out.read_text() == "taken"

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, kind="unheard-of")
        assert main(["run", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate-config"])
    @pytest.mark.parametrize("config", ["missing", "directory", "latin-1"])
    def test_missing_file_exits_2(self, tmp_path, capsys, command, config):
        path = tmp_path / config
        if config == "directory":
            path.mkdir()
        elif config == "latin-1":
            path.write_bytes('{"kind": "ratio", "output_dir": "é"}'
                             .encode("latin-1"))
        assert main([command, "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_scene_key_exits_2(self, tmp_path):
        config = write_config(tmp_path, scene={"n_tx": 3, "n_rx": 3,
                                               "mystery": 1})
        assert main(["run", "--config", str(config)]) == 2

    @pytest.mark.parametrize("key", ["dykstra_max_cycles", "dykstra_tol",
                                     "n_g", "seed"])
    def test_removed_solver_option_exits_2(self, tmp_path, capsys, key):
        config = write_config(tmp_path, solver={"t_max": 3, key: 500})
        assert main(["validate-config", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate-config", "run"])
    @pytest.mark.parametrize("key,value", [("irs_inner", True),
                                           ("inner_tol", 1e-6)])
    def test_phase_step_setting_other_than_inner_max_exits_2(
            self, tmp_path, capsys, command, key, value):
        # inner_max alone sets the phase steps per outer iteration
        config = write_config(tmp_path, solver={"t_max": 3, key: value})
        out = tmp_path / "results"
        assert main([command, "--config", str(config)]
                    + (["--out", str(out)] if command == "run" else [])) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate-config", "run"])
    def test_ball_without_k_column_precoder_exits_2(self, tmp_path, capsys,
                                                    command):
        # no 2-column precoder lies within 1e-12 of the rank-3 target R_D
        config = write_config(tmp_path, scene={
            "n_tx": 3, "n_rx": 3, "n_users": 2, "irs_rows": 2, "irs_cols": 2,
            "alpha_mag": 0.1, "beampattern_tol": 1e-12})
        out = tmp_path / "results"
        assert main([command, "--config", str(config)]
                    + (["--out", str(out)] if command == "run" else [])) == 2
        assert "beampattern ball too tight" in capsys.readouterr().err
        assert not out.exists()


BAD_SWEEPS = [
    {"kind": "ratio", "l_values": [4], "n_g_grid": [0]},
    {"kind": "scaling", "l_values": [4.7]},
    {"beta_values": [1.5]},
]


class TestBadSweeps:
    @pytest.mark.parametrize("command", ["validate-config", "run"])
    @pytest.mark.parametrize("sweep", BAD_SWEEPS,
                             ids=["n_g_zero", "l_fractional", "beta_above_one"])
    def test_out_of_range_sweep_exits_2(self, tmp_path, capsys, command,
                                        sweep):
        config = write_config(tmp_path, **sweep)
        out = tmp_path / "results"
        assert main([command, "--config", str(config)]
                    + (["--out", str(out)] if command == "run" else [])) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


# Counts numpy cannot index, by the field the error names; an l_values
# entry that passed loading would hang the run in near_square_grid
HUGE_COUNTS = {
    "n_tx": {"scene": {"n_tx": 10 ** 400, "n_rx": 10 ** 400}},
    "irs_rows": {"scene": {"irs_rows": 10 ** 400}},
    "l_values[1]": {"kind": "ratio", "beta_values": [],
                    "l_values": [8, 10 ** 400], "n_g_grid": [5]},
    "n_g_grid[1]": {"kind": "ratio", "beta_values": [], "l_values": [4],
                    "n_g_grid": [10, 10 ** 400]},
}


# Shipped configs with a surface numpy can index but memory cannot hold,
# by the field the error names: (config, overrides of its fields).  The
# third takes 256 MiB for its channel but 16 TiB for the L x L matrix.
HUGE_SURFACES = {
    "l_values[1]": ("ratio", {"l_values": [8, 2 ** 62]}),
    "irs_rows * irs_cols": ("convergence", {"scene": {"irs_rows": 2 ** 31,
                                                      "irs_cols": 2 ** 31}}),
    "l_values[0]": ("ratio", {"l_values": [2 ** 26]}),
}


def _limit_address_space():
    """Cap the child's address space at 2 GiB: an allocation the size of
    a huge count fails at once, and none is ever made."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def write_shipped(tmp_path, name, overrides):
    """A shipped config with top-level fields, or scene fields under
    "scene", replaced by ``overrides``: its path under ``tmp_path``."""
    shipped = Path(__file__).resolve().parents[1] / f"configs/{name}.json"
    raw = json.loads(shipped.read_text())
    for key, value in overrides.items():
        raw[key] = {**raw[key], **value} if key == "scene" else value
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(raw))
    return config


# The CLI with the physical memory figure patched to its argument, in bytes.
_PATCHED_MEMORY_CLI = ("import sys; from isacopt import cli, harness; "
                       "harness._physical_memory = lambda: int(sys.argv[1]); "
                       "sys.exit(cli.main(sys.argv[2:]))")


class TestHugeCounts:
    @staticmethod
    def _cli(tmp_path, command, config, memory=None, **kwargs):
        """Run ``command`` on ``config`` in a child process with a timeout,
        so that a hang fails the test, and with ``memory`` bytes of
        physical memory where given: (completed process, --out dir)."""
        out = tmp_path / "results"
        src = str(Path(isacopt.__file__).resolve().parent.parent)
        env = {**os.environ, **dict.fromkeys(harness.BLAS_THREAD_VARS, "1"),
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cli = (["-m", "isacopt.cli"] if memory is None else
               ["-c", _PATCHED_MEMORY_CLI, str(memory)])
        done = subprocess.run(
            [sys.executable, *cli, command, "--config", str(config)]
            + (["--out", str(out)] if command == "run" else []),
            env=env, capture_output=True, text=True, timeout=60, **kwargs)
        return done, out

    @pytest.mark.parametrize("command", ["validate-config", "run"])
    @pytest.mark.parametrize("field", list(HUGE_COUNTS))
    def test_exits_2_on_load(self, tmp_path, command, field):
        config = write_config(tmp_path, **HUGE_COUNTS[field])
        done, out = self._cli(tmp_path, command, config)
        assert done.returncode == 2, done.stderr
        assert f"config error: {field} must be an integer" in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate-config", "run"])
    def test_antennas_memory_cannot_hold_exit_2_on_load(self, tmp_path,
                                                        command):
        # numpy indexes 2^20 antennas, but R_D alone takes 8 TiB
        config = write_config(tmp_path, scene={"n_tx": 2 ** 20,
                                               "n_rx": 2 ** 20})
        done, out = self._cli(tmp_path, command, config,
                              preexec_fn=_limit_address_space)
        assert done.returncode == 2, done.stderr
        assert "config error: n_tx = 1048576" in done.stderr
        assert "do not fit in memory" in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate-config", "run"])
    @pytest.mark.parametrize("field", list(HUGE_SURFACES))
    def test_surface_memory_cannot_hold_exit_2_on_load(self, tmp_path,
                                                        command, field):
        config = write_shipped(tmp_path, *HUGE_SURFACES[field])
        done, out = self._cli(tmp_path, command, config,
                              preexec_fn=_limit_address_space)
        assert done.returncode == 2, done.stderr
        assert f"config error: {field} = " in done.stderr
        assert "do not fit in memory" in done.stderr
        assert not out.exists()

    # On 8 GiB, a ratio trial at L = 600000 (about 9.1 GiB by
    # ratio.study_bytes, its candidate block and arrays at rank) is
    # rejected, though an overcommitting kernel grants arrays that are
    # never touched.  Only run is capped: were the surface to load, its
    # trials must fail, not fill memory.
    @pytest.mark.parametrize("command", ["validate-config", "run"])
    def test_surface_counted_past_memory_exits_2(self, tmp_path, command):
        config = write_shipped(tmp_path, "ratio", {"l_values": [8, 600000]})
        done, out = self._cli(
            tmp_path, command, config, memory=8 << 30,
            preexec_fn=_limit_address_space if command == "run" else None)
        assert done.returncode == 2, done.stderr
        assert "config error: l_values[1] = 600000: " in done.stderr
        assert "do not fit in memory (8 GiB)" in done.stderr
        assert not out.exists()

    # A surface the factored trial holds in O(L) memory loads: L = 4096 is
    # counted at about 70 MiB, with no L x L term
    def test_surface_counted_within_memory_loads(self, tmp_path):
        config = write_shipped(tmp_path, "ratio", {"l_values": [8, 4096]})
        done, _ = self._cli(tmp_path, "validate-config", config,
                            memory=8 << 30)
        assert done.returncode == 0, done.stderr

    # The draws of a sample count numpy can index but memory cannot hold:
    # 10^12 candidates of rank up to 25 take about 600 TiB
    # (ratio.study_bytes).  Both commands are capped: a run that loaded
    # would fail its trials, not fill memory.
    @pytest.mark.parametrize("command", ["validate-config", "run"])
    def test_sample_count_memory_cannot_hold_exits_2(self, tmp_path,
                                                      command):
        config = write_shipped(tmp_path, "ratio", {"n_g_grid": [10, 10 ** 12]})
        done, out = self._cli(tmp_path, command, config,
                              preexec_fn=_limit_address_space)
        assert done.returncode == 2, done.stderr
        assert "config error: n_g_grid[1] = 1000000000000: " in done.stderr
        assert "do not fit in memory" in done.stderr
        assert not out.exists()

    # On 8 GiB, 10^7 draws at L = 36 are counted at 6.2 GiB and load;
    # 10^8 are counted at 62 GiB and do not
    @pytest.mark.parametrize("n_g,code", [(10 ** 7, 0), (10 ** 8, 2)])
    def test_sample_count_counted_against_memory(self, tmp_path, n_g, code):
        config = write_shipped(tmp_path, "ratio", {"n_g_grid": [n_g, 10]})
        done, _ = self._cli(tmp_path, "validate-config", config,
                            memory=8 << 30)
        assert done.returncode == code, done.stderr
        if code:
            assert f"config error: n_g_grid[0] = {n_g}: " in done.stderr

    # Each load-time check of the sweep table, the ratio study's radar
    # weight and the beampattern check's count, by the text its error
    # starts with: (shipped config, overrides of its fields).  The memory
    # is patched to 8 GiB and the address space capped at 2 GiB, so a
    # count that were missed would fail at once.
    @pytest.mark.parametrize("command", ["validate-config", "run"])
    @pytest.mark.parametrize("message,case", [
        ("l_values[0] = 8 and l_values[1] = 8 share the value 8",
         ("ratio", {"l_values": [8, 8]})),
        ("n_g_grid[0] = 10 and n_g_grid[1] = 10 share the value 10",
         ("ratio", {"n_g_grid": [10, 10]})),
        ("a ratio experiment does not read beta_values",
         ("ratio", {"beta_values": [0.5]})),
        ("a convergence experiment does not read l_values",
         ("convergence", {"l_values": [36]})),
        ("scene.beta = 1: ", ("ratio", {"scene": {"beta": 1}})),
        ("n_tx = 12000, n_users = 5: the beampattern check's arrays take",
         ("convergence", {"scene": {"n_tx": 12000, "n_rx": 12000}})),
        ("n_tx = 16, n_users = 67108864: the beampattern check's arrays take",
         ("convergence", {"scene": {"n_users": 2 ** 26}})),
    ], ids=["l_repeated", "n_g_repeated", "ratio_beta_values",
            "convergence_l_values", "ratio_beta_one", "n_tx", "n_users"])
    def test_load_check_exits_2(self, tmp_path, command, message, case):
        config = write_shipped(tmp_path, *case)
        done, out = self._cli(tmp_path, command, config, memory=8 << 30,
                              preexec_fn=_limit_address_space)
        assert done.returncode == 2, done.stderr
        assert f"config error: {message}" in done.stderr
        assert not out.exists()

    def test_surfaces_counted_within_memory_load(self, tmp_path):
        config = write_shipped(tmp_path, "ratio", {"l_values": [8, 36]})
        done, _ = self._cli(tmp_path, "validate-config", config,
                            memory=8 << 30)
        assert done.returncode == 0, done.stderr


# Configs of the wrong JSON shape or type: overrides of the valid config,
# or the text of the whole file.
MALFORMED = {
    "scene_not_object": {"scene": [1, 2]},
    "solver_not_object": {"solver": 5},
    "alpha_mag_string": {"scene": {"alpha_mag": "x"}},
    "dbm_string": {"scene": {"power_budget_dbm": "loud"}},
    "db_null": {"solver": {"eps_rel_db": None}},
    "dbm_bool": {"scene": {"power_budget_dbm": True}},
    "output_dir_number": {"output_dir": 5},
    "dbm_overflow": {"scene": {"power_budget_dbm": 1e308}},
    "scene_int_overflow": {"scene": {"beampattern_tol": 10 ** 400}},
    "solver_int_overflow": {"solver": {"eps_rel": 10 ** 400}},
    "scalar_as_list": {"scene": {"beta": [0.5]}},
    "negative_master_seed": {"master_seed": -1},
    "not_json": "{not json",
    "top_level_array": '[{"kind": "convergence"}]',
}


class TestMalformedConfig:
    @pytest.mark.parametrize("command", ["validate-config", "run"])
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_exits_2(self, tmp_path, capsys, command, case):
        bad = MALFORMED[case]
        config = write_config(tmp_path, **({} if isinstance(bad, str) else bad))
        if isinstance(bad, str):
            config.write_text(bad)
        assert main([command, "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "default_out").exists()


class TestRemovedBench:
    def test_bench_command_exits_2(self, capsys):
        # argparse's exit for a subcommand it does not offer
        with pytest.raises(SystemExit) as info:
            main(["bench"])
        assert info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_bench_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({"kind": "bench"}))
        out = tmp_path / "bench"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert ("config error: kind must be one of ('convergence', "
                "'scaling', 'ratio')") in capsys.readouterr().err
        assert not out.exists()


def test_readme_commands_parse():
    # every command of the README's "Command line" block, parsed only: a
    # subcommand or flag that is gone cannot stay documented
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split()[1:] for line in block.splitlines()
                if line.startswith("isac ")]
    assert len(commands) >= 3
    parser = _build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


class TestPlotdata:
    def test_emits_gnuplot_columns(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "results"
        main(["run", "--config", str(config), "--out", str(out)])
        csv_path = out / "convergence_beta0.5.csv"
        assert main(["plotdata", "--csv", str(csv_path)]) == 0
        dat = csv_path.with_suffix(".dat").read_text().splitlines()
        assert dat[0].startswith("# iteration mean_objective")
        assert len(dat[1].split()) == 5

    # files written before the call, by name; the others are not there
    CSV_BYTES = {"latin-1.csv": "caf\u00e9,x\n1,2\n".encode("latin-1"),
                 "empty.csv": b"", "ragged.csv": b"a,b\n1,2,3\n"}

    @pytest.mark.parametrize("name", ["nope.csv", ".", "latin-1.csv",
                                      "empty.csv", "ragged.csv"])
    def test_missing_csv_exits_2(self, tmp_path, capsys, name):
        if name in self.CSV_BYTES:
            (tmp_path / name).write_bytes(self.CSV_BYTES[name])
        assert main(["plotdata", "--csv", str(tmp_path / name)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_out_in_missing_directory_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "table.csv"
        csv_path.write_text("a,b\n1,2\n")
        out = tmp_path / "missing" / "table.dat"
        assert main(["plotdata", "--csv", str(csv_path),
                     "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.parent.exists()


class TestValidateConfig:
    def test_valid_config(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["validate-config", "--config", str(config)]) == 0
        captured = capsys.readouterr()
        assert "config ok" in captured.err
        resolved = json.loads(captured.out)
        assert resolved["scene"]["n_tx"] == 3

    @pytest.mark.parametrize("name", ["beampattern", "convergence", "ratio",
                                      "scaling"])
    def test_resolved_config_loads_back(self, tmp_path, capsys, name):
        config = Path(__file__).resolve().parents[1] / f"configs/{name}.json"
        assert main(["validate-config", "--config", str(config)]) == 0
        resolved = capsys.readouterr().out
        assert "alpha_mag" in json.loads(resolved)["scene"]
        again = tmp_path / "resolved.json"
        again.write_text(resolved)
        assert main(["validate-config", "--config", str(again)]) == 0
        assert capsys.readouterr().out == resolved

    def test_sidecar_config_loads_back(self, tmp_path):
        # the same hash, and the same primary CSVs
        config = write_config(tmp_path, trials=1)
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["run", "--config", str(config), "--out", str(first)]) == 0
        sidecar = first / "convergence_beta0.5.csv.meta.json"
        config.write_text(json.dumps(json.loads(sidecar.read_text())
                                     ["config"]))
        assert main(["run", "--config", str(config), "--out", str(again)]) == 0
        assert (json.loads((again / sidecar.name).read_text())["config_sha256"]
                == json.loads(sidecar.read_text())["config_sha256"])
        for csv in first.glob("convergence_*.csv"):
            if "timing" not in csv.name:
                assert (again / csv.name).read_bytes() == csv.read_bytes()

    def test_spacing_warning(self, tmp_path, capsys):
        config = write_config(
            tmp_path, scene={"n_tx": 3, "n_rx": 3,
                             "spacing_over_lambda": 0.25})
        assert main(["validate-config", "--config", str(config)]) == 0
        assert "spacing" in capsys.readouterr().err

    def test_invalid_exits_2(self, tmp_path):
        config = write_config(tmp_path, trials=0)
        assert main(["validate-config", "--config", str(config)]) == 2

    def test_non_finite_scene_exits_2(self, tmp_path, capsys):
        # json writes float("nan") as the NaN literal, which json.load accepts
        config = write_config(
            tmp_path, scene={"n_tx": 3, "n_rx": 3,
                             "power_budget": float("nan")})
        assert main(["validate-config", "--config", str(config)]) == 2
        assert "power_budget" in capsys.readouterr().err
