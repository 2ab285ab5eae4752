"""Paired timing of two source trees in one process.

    python3 tools/pair_trees.py --against ../parent --workload ratio \
        --seed 31 --inputs 60

Imports this checkout's ``src/isacopt`` as ``isacopt`` and the other tree's
as a second package, ``isacopt_against``; the package's imports are
relative, so each copy resolves inside itself.  The inputs are the
benchmark's (``perfbench/workloads.make_inputs``, read only).  Each runs
on both trees through ``workloads.run_trial``, with each tree's own
modules and ``SolverOptions`` bound in for its run; which tree goes first
alternates from one input to the next, after one untimed warm-up run of
the first input on each.  Every output is certified with
``workloads.certify``.  Timing both trees in one process, input by input,
keeps a slow phase of the machine from landing on one side only, which
separate runs cannot.

Prints the median and quartiles of the per-trial time ratio (this
checkout over the other tree), the fraction of trials in which this
checkout was faster, and the largest relative difference between the two
trees' final objectives or ratios; the last line of standard output is
one JSON object with those keys.  Exit code 0 when every trial ran and
certified on both trees, 1 when one raised or failed a check, 2 when the
arguments are bad.  BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def load_tree(pkg: Path, name: str):
    """The package at ``pkg`` (a directory with ``__init__.py``) imported
    under ``name``, with its own copy of every submodule."""
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


TREE_MODULES = ("alternating", "irs", "precoder")


def run_trial(tree, wl, inp):
    """``workloads.run_trial`` on the package ``tree``, with the tree's own
    ``SolverOptions`` (``wl.opts()``), on a copy of the input's generator.

    The tree's modules are bound into ``workloads`` for the call and the
    originals put back afterwards, so each tree reads only its own options
    and a field one tree lacks cannot reach the other."""
    import workloads
    saved = [(mod, getattr(workloads, mod)) for mod in TREE_MODULES]
    try:
        for mod in TREE_MODULES:
            setattr(workloads, mod,
                    importlib.import_module(f"{tree.__name__}.{mod}"))
        return workloads.run_trial(wl, inp, copy.deepcopy(inp.rng), wl.opts())
    finally:
        for mod, original in saved:
            setattr(workloads, mod, original)


def timed(tree, wl, inp):
    """(output or None, seconds, problems) of one run of ``inp``."""
    import workloads
    tic = time.perf_counter()
    try:
        out = run_trial(tree, wl, inp)
    except Exception:
        return None, time.perf_counter() - tic, [
            f"trial {inp.index}: {traceback.format_exc()}"]
    return out, time.perf_counter() - tic, workloads.certify(wl, inp, out)


def relative_diff(a, b) -> float:
    """The largest relative difference between the final objectives and
    the ratios of two outputs."""
    if len(a.ratios) != len(b.ratios):
        return float("inf")
    pairs = [(a.trace.objective_per_outer[-1],
              b.trace.objective_per_outer[-1]), *zip(a.ratios, b.ratios)]
    return max(abs(x - y) / abs(y) if y else abs(x - y) for x, y in pairs)


def pair(this, against, wl, seed: int, count: int) -> dict:
    """Run ``count`` inputs of ``wl`` on both packages; the summary, with
    the outputs as ``outputs``, one (this, against) pair per input."""
    import workloads
    inputs = workloads.make_inputs(wl, seed, count)
    for tree in (this, against):                       # warm-up, untimed
        timed(tree, wl, inputs[0])
    ratios, outputs, problems = [], [], []
    diff = 0.0
    for inp in inputs:
        trees = (this, against) if inp.index % 2 == 0 else (against, this)
        runs = {tree.__name__: timed(tree, wl, inp) for tree in trees}
        (out, t_this, bad_this), (ref, t_ref, bad_ref) = (
            runs[this.__name__], runs[against.__name__])
        problems += [f"{this.__name__}: {m}" for m in bad_this]
        problems += [f"{against.__name__}: {m}" for m in bad_ref]
        outputs.append((out, ref))
        if out is not None and ref is not None:
            ratios.append(t_this / t_ref)
            diff = max(diff, relative_diff(out, ref))
    nan = float("nan")
    q1, median, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                      else [nan] * 3)
    return {"workload": wl.name, "seed": seed, "inputs": count,
            "paired": len(ratios), "problems": problems,
            "time_ratio_median": median, "time_ratio_q1": q1,
            "time_ratio_q3": q3,
            "won": (sum(r < 1.0 for r in ratios) / len(ratios)
                    if ratios else nan),
            "max_diff": diff, "outputs": outputs}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", required=True,
                    help="root of the other source tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", type=int, required=True)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    other = Path(args.against).resolve() / "src" / "isacopt"
    for pkg in (ROOT / "src" / "isacopt", other):
        if not (pkg / "__init__.py").is_file():
            print(f"error: no isacopt sources under {pkg.parent}",
                  file=sys.stderr)
            return 2
    if args.inputs < 1:
        print("error: --inputs must be at least 1", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:        # must precede the first numpy import
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import isacopt
    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    summary = pair(isacopt, load_tree(other, "isacopt_against"), wl,
                   args.seed, args.inputs)
    del summary["outputs"]
    for msg in summary["problems"]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"{wl.name}: {summary['paired']} of {args.inputs} inputs paired; "
          f"time ratio median {summary['time_ratio_median']:.4f} "
          f"(quartiles {summary['time_ratio_q1']:.4f}, "
          f"{summary['time_ratio_q3']:.4f}); faster in "
          f"{summary['won']:.0%}; largest difference "
          f"{summary['max_diff']:.3g}")
    summary["problems"] = len(summary["problems"])
    print(json.dumps(summary))
    return 1 if summary["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
