"""isacopt benchmark: one seeded workload, one closed-loop client.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 22 --trace 0

Runs from the root of a source checkout and imports ``isacopt`` from its
``src`` directory, with BLAS pinned to one thread.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs half as many inputs once untraced
and once traced each and prints the per-layer metrics, writing the spans
to ``perfbench/out``.  ``--seconds`` sets the number of inputs, so that an
untraced run takes about that long at the commit that defined the
benchmark; the same seed and seconds give the same inputs.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 when every output is
certified, 1 when a check fails, 2 when the checkout or arguments are bad.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context(load_start: tuple) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isacopt" / "__init__.py").is_file():
        print(f"error: no isacopt sources under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    for var in BLAS_THREAD_VARS:        # must precede the first numpy import
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    tic = time.perf_counter()
    import isacopt
    import_s = time.perf_counter() - tic
    if Path(isacopt.__file__).resolve().parent != SRC / "isacopt":
        print(f"error: imported isacopt from {isacopt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import measure
    import tracing
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:      # every input runs twice: half as many inputs
        count = wl.pool_size(args.seconds / 2)
        measure.set_up(wl, args.seed, count, measure.SETUP_REPS_BEFORE)
        tracer, inputs, loop, traced = measure.traced_loop(wl, args.seed, count)
        runs = [loop, traced]
        problems = [f"trial {i}: traced output differs from untraced"
                    for i, out in traced.outputs.items()
                    if not measure.same_output(out, loop.outputs[i])]
        metrics = measure.per_layer(tracer, traced, loop)
        spans_path = HERE / "out" / f"spans-{wl.name}-seed{args.seed}.csv.gz"
        tracing.write_spans(tracer.spans, spans_path)
        print(f"spans {len(tracer.spans)} -> {spans_path.relative_to(ROOT)}")
    else:
        count = wl.pool_size(args.seconds)
        inputs, setup_times = measure.set_up(wl, args.seed, count,
                                             measure.SETUP_REPS_BEFORE)
        loop = measure.closed_loop(wl, inputs)
        rss_mb = measure.peak_rss_mb()      # before the later set-ups
        setup_times += measure.set_up(wl, args.seed, count,
                                      measure.SETUP_REPS_AFTER)[1]
        runs = [loop]
        problems = []
        metrics = measure.end_to_end(
            wl, inputs, loop, import_s + statistics.median(setup_times), rss_mb)
        print("wall " + json.dumps(measure.wall_times(loop)))
    problems += measure.certify_all(wl, inputs, loop.outputs)
    for msg in (err for run in runs for err in run.errors):
        print(f"trial failed: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print("context " + json.dumps(run_context(load_start), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
