import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import isacopt

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "tools", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pair_trees  # noqa: E402
import workloads  # noqa: E402

TWIN = "isacopt_twin"


def package_modules(name):
    """The modules of package ``name`` in ``sys.modules``, by their name
    inside the package."""
    return {key[len(name):]: module for key, module in sys.modules.items()
            if key == name or key.startswith(name + ".")}


@pytest.fixture(scope="module")
def twin():
    """This tree's package loaded a second time, under another name."""
    pkg = Path(isacopt.__file__).resolve().parent
    yield pair_trees.load_tree(pkg, TWIN)
    for key in package_modules(TWIN):
        del sys.modules[TWIN + key]


class TestPairTrees:
    def test_twin_shares_no_module(self, twin):
        ours, theirs = package_modules("isacopt"), package_modules(TWIN)
        assert {"", ".ratio", ".alternating", ".irs"} <= theirs.keys()
        assert theirs.keys() <= ours.keys()
        assert not ({id(m) for m in ours.values()}
                    & {id(m) for m in theirs.values()})
        assert twin.ratio.GramFactor is not isacopt.ratio.GramFactor
        assert twin.ratio.squarem_ascent is not isacopt.ratio.squarem_ascent

    def test_each_tree_runs_with_its_own_options(self, twin, monkeypatch):
        # a tree whose loop reads a field the other tree's SolverOptions
        # lacks must still pair, so no tree is handed the other's options
        seen = []
        for pkg in (isacopt, twin):
            def recording(ch, cfg, opts=None, rng=None, _name=pkg.__name__,
                          _run=pkg.alternating.run_alternating):
                seen.append((_name, type(opts)))
                return _run(ch, cfg, opts=opts, rng=rng)
            monkeypatch.setattr(pkg.alternating, "run_alternating", recording)
        summary = pair_trees.pair(isacopt, twin, workloads.WORKLOADS["paper"],
                                  seed=1, count=2)
        assert summary["problems"] == [] and summary["paired"] == 2
        assert {name for name, _ in seen} == {"isacopt", TWIN}
        for name, options in seen:
            tree = isacopt if name == "isacopt" else twin
            assert options is tree.alternating.SolverOptions, name
        assert twin.alternating.SolverOptions is not (
            isacopt.alternating.SolverOptions)
        assert (workloads.alternating, workloads.irs, workloads.precoder) == (
            isacopt.alternating, isacopt.irs, isacopt.precoder)

    @pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
    def test_twin_gives_equal_outputs(self, twin, workload):
        wl = workloads.WORKLOADS[workload]
        summary = pair_trees.pair(isacopt, twin, wl, seed=1, count=2)
        assert summary["problems"] == []
        assert summary["paired"] == 2 and summary["max_diff"] == 0.0
        for out, ref in summary["outputs"]:
            assert type(out.trace) is not type(ref.trace)
            assert (out.trace.objective_per_outer
                    == ref.trace.objective_per_outer)
            np.testing.assert_array_equal(out.precoder, ref.precoder)
            np.testing.assert_array_equal(out.theta, ref.theta)
            assert out.ratios == ref.ratios
            if wl.n_g_grid:
                np.testing.assert_array_equal(out.r_star.z, ref.r_star.z)

    @pytest.mark.parametrize("this_s, against_s", [
        ([1.0, 3.0], [2.0, 1.0]),                       # ratios 0.5, 3.0
        ([1.0, 1.0, 2.0, 4.0, 1.0], [1.0, 2.0, 1.0, 1.0, 4.0])])
    def test_quartiles_lie_within_the_ratios(self, monkeypatch, this_s,
                                             against_s):
        # fixed per-input times: the quartiles of the time ratios are
        # interpolated between them, never extrapolated past them (ratios
        # 0.5 and 3.0 gave quartiles -0.125 and 3.625 by the exclusive method)
        seconds = {"this": this_s, "against": against_s}
        out = SimpleNamespace(ratios=[],
                              trace=SimpleNamespace(objective_per_outer=[1.0]))
        monkeypatch.setattr(pair_trees, "timed", lambda tree, wl, inp: (
            out, seconds[tree.__name__][inp.index], []))
        trees = [SimpleNamespace(__name__=name) for name in seconds]
        summary = pair_trees.pair(*trees, workloads.WORKLOADS["paper"],
                                  seed=1, count=len(this_s))
        ratios = [a / b for a, b in zip(this_s, against_s)]
        assert summary["paired"] == len(ratios)
        assert (min(ratios) <= summary["time_ratio_q1"]
                <= summary["time_ratio_median"] <= summary["time_ratio_q3"]
                <= max(ratios))
        if len(ratios) == 2:
            assert (summary["time_ratio_q1"], summary["time_ratio_q3"]) \
                == pytest.approx((1.125, 2.375))
