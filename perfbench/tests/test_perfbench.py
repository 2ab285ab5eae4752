"""Tests of the benchmark itself, on pools shrunk to a few trials.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import importlib
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import measure
import tracing
import workloads as W

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_small(name: str, seed: int, count: int):
    wl = W.WORKLOADS[name]
    inputs = W.make_inputs(wl, seed, count)
    loop = measure.closed_loop(wl, inputs)
    tracer, _, plain, traced = measure.traced_loop(wl, seed, count)
    return (wl, inputs, loop, measure.end_to_end(wl, inputs, loop, 0.0, 0.0),
            measure.per_layer(tracer, traced, plain))


@pytest.fixture(scope="module")
def ratio_runs():
    return [run_small("ratio", 3, 3) for _ in range(2)]


@pytest.fixture(scope="module")
def binding_runs():
    return [run_small("binding", 3, 6) for _ in range(2)]


def deterministic(metrics: dict) -> dict:
    return {name: value for name, (value, unit) in metrics.items()
            if unit == "count" or name in ("objective_db_mean", "approx_ratio_mean")}


@pytest.mark.parametrize("runs", ["ratio_runs", "binding_runs"])
def test_same_seed_repeats_quality_and_counts(runs, request):
    (_, _, _, e2e_a, layer_a), (_, _, _, e2e_b, layer_b) = request.getfixturevalue(runs)
    assert deterministic(e2e_a) == deterministic(e2e_b)
    assert deterministic(layer_a) == deterministic(layer_b)
    assert len(deterministic(layer_a)) >= 10
    assert layer_a["alternating.outer_iterations"][0] > 0


def test_binding_ball_is_active_and_paper_ball_is_not(binding_runs):
    layer = binding_runs[0][4]
    assert layer["precoder.project_ball.active_ratio"][0] > 0.0
    _, _, _, _, paper = run_small("paper", 3, 3)
    assert paper["precoder.project_ball.active_ratio"][0] == 0.0


def test_outputs_certify_and_bad_outputs_do_not(ratio_runs):
    wl, inputs, loop, _, _ = ratio_runs[0]
    assert measure.certify_all(wl, inputs, loop.outputs) == []
    out = loop.outputs[inputs[0].index]
    louder = replace(out, precoder=1.1 * out.precoder)
    assert any("power" in msg for msg in W.certify(wl, inputs[0], louder))
    bent = replace(out, theta=out.theta * np.linspace(1.0, 1.01, out.theta.size))
    assert any("modulus" in msg for msg in W.certify(wl, inputs[0], bent))
    off_diag = replace(out, r_star=out.r_star + 0.01 * np.eye(out.r_star.shape[0]))
    assert any("diagonal" in msg for msg in W.certify(wl, inputs[0], off_diag))


def test_every_wrapped_name_is_restored():
    targets = tracing.TARGETS + tracing.COUNTED
    modules = {m: importlib.import_module(m) for m, _, _ in targets}
    before = {(m, a): getattr(modules[m], a) for m, a, _ in targets}
    with tracing.Tracer():
        assert all(getattr(modules[m], a) is not fn for (m, a), fn in before.items())
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())

    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("trial blew up")
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())

    measure.traced_loop(W.WORKLOADS["binding"], 5, 3)
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("alternating.run", 0.0, 10.0, -1, 0),     # children b, d, e
        ("precoder.b", 1.0, 4.0, 0, 0),            # child c
        ("precoder.c", 2.0, 3.0, 1, 0),
        ("irs.d", 5.0, 9.0, 0, 0),
        ("irs.e", 8.5, 12.0, 0, 0),                # overlaps d, overruns parent
        ("scene.make", 20.0, 21.0, -1, -1),        # outside any trial
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10 - 3 - 4 - 1, 3 - 1, 1, 4, 3.5, 1])
    layers = tracing.layer_self_times(spans, selfs)
    assert layers == pytest.approx({"alternating": 2.0, "precoder": 3.0,
                                    "irs": 7.5, "scene": 0.0, "objective": 0.0})


def test_metric_names_match_the_spec_and_the_pattern(ratio_runs):
    _, _, _, e2e, layer = ratio_runs[0]
    declared_e2e = [m["name"] for m in SPEC["end_to_end"]]
    declared_layer = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(e2e) == sorted(declared_e2e)
    assert sorted(layer) == sorted(declared_layer)
    for name in declared_e2e + declared_layer + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(W.WORKLOADS)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert {n: u for n, (_, u) in {**e2e, **layer}.items()} == units


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
