import json

import pytest

from isacopt import harness
from isacopt.cli import main
from isacopt.harness import read_csv_rows

_CONVERGENCE_TRIAL = harness._convergence_trial


def _fails_on_point0_trial1(args):
    """Convergence worker that raises on trial 1 of the first sweep point;
    module-level so that spawned workers can import it."""
    if tuple(args[-2:]) == (0, 1):
        raise ValueError("injected failure")
    return _CONVERGENCE_TRIAL(args)


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

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, kind="unheard-of")
        assert main(["run", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_scene_key_exits_2(self, tmp_path):
        config = write_config(tmp_path, scene={"n_tx": 3, "n_rx": 3,
                                               "mystery": 1})
        assert main(["run", "--config", str(config)]) == 2

    @pytest.mark.parametrize("key", ["dykstra_max_cycles", "dykstra_tol",
                                     "n_g"])
    def test_removed_solver_option_exits_2(self, tmp_path, capsys, key):
        config = write_config(tmp_path, solver={"t_max": 3, key: 500})
        assert main(["validate-config", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err

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


class TestBench:
    def test_bench_runs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "bench"
        code = main(["bench", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "bench.csv").exists()
        assert (out / "bench_timing.csv").exists()


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

    def test_missing_csv_exits_2(self, tmp_path):
        assert main(["plotdata", "--csv", str(tmp_path / "nope.csv")]) == 2


class TestValidateConfig:
    def test_valid_config(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["validate-config", "--config", str(config)]) == 0
        captured = capsys.readouterr()
        assert "config ok" in captured.err
        resolved = json.loads(captured.out)
        assert resolved["scene"]["n_tx"] == 3

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
