"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads paper binding --seeds 1-10 \\
        --seconds 22 --trace 0 --out perfbench/out/sweep.jsonl
    python3 perfbench/sweep.py --summarize perfbench/out/sweep.jsonl

Runs are made one after another, each in its own process, and appended as
JSON lines ``{"workload", "seed", "trace", "exit", "result", "wall"}``, where
``wall`` holds the uncalibrated wall-time figures of an untraced run.  The summary
gives, per workload and metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread
(q3 - q1) / median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    wall = next((json.loads(line[5:]) for line in lines if line.startswith("wall ")),
                None)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": proc.returncode, "result": result, "wall": wall}


def summarize(records: list[dict]) -> str:
    values: dict[tuple, list[float]] = defaultdict(list)
    units: dict[str, str] = {}
    for rec in records:
        if rec["result"] is None:
            continue
        for name, metric in rec["result"]["metrics"].items():
            values[(rec["workload"], rec["trace"], name)].append(metric["value"])
            units[name] = metric["unit"]
        for name, value in (rec.get("wall") or {}).items():
            values[(rec["workload"], rec["trace"], f"wall.{name}")].append(value)
            units[f"wall.{name}"] = "(not gated)"
    rows = ["| workload | trace | metric | unit | n | median | q1 | q3 | spread |",
            "|---|---|---|---|---|---|---|---|---|"]
    for (workload, trace, name), vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        spread = (q3 - q1) / abs(med) if med else 0.0
        rows.append(f"| {workload} | {trace} | {name} | {units[name]} | "
                    f"{len(vals)} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} |")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, as 1-10")
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "out" / "sweep.jsonl")
    ap.add_argument("--summarize", type=Path, help="only summarise this file")
    args = ap.parse_args(argv)
    if args.summarize:
        records = [json.loads(line) for line in args.summarize.read_text().splitlines()]
        print(summarize(records))
        return 0
    args.out.parent.mkdir(parents=True, exist_ok=True)
    records, bad = [], 0
    for workload in args.workloads:
        for seed in seed_range(args.seeds):
            rec = run_one(workload, seed, args.seconds, args.trace)
            bad += rec["exit"] != 0
            records.append(rec)
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec) + "\n")
            print(f"{workload} seed {seed}: exit {rec['exit']}", flush=True)
    print(summarize(records))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
