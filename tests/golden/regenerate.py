"""Regenerate the golden answers: the primary CSVs of the four shipped
configs at two trials each, written under ``tests/golden/<config>/``.

    PYTHONPATH=src python tests/golden/regenerate.py

Trial t of a config draws from ``SeedSequence([master_seed, point, t])``,
so these are the first two trials of the full runs.  ``test_golden.py``
runs the same configs in process and compares the cells.  A change that
moves an answer regenerates these files and states which cells moved and
by how much.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

from isacopt.harness import load_experiment_spec, run_experiment

GOLDEN = Path(__file__).resolve().parent
CONFIGS = GOLDEN.parents[1] / "configs"
SHIPPED = ("beampattern", "convergence", "ratio", "scaling")
TRIALS = 2


def primary_csvs(out_dir: Path) -> list[Path]:
    """The primary CSVs of a run's output directory: every CSV but the
    wall-clock ``*_timing*`` ones."""
    return sorted(p for p in out_dir.glob("*.csv") if "_timing" not in p.name)


def run_shipped(name: str, out_dir: Path) -> list[Path]:
    """Run the shipped config ``name`` at ``TRIALS`` trials, in this
    process, into ``out_dir``; its primary CSVs."""
    spec = load_experiment_spec(CONFIGS / f"{name}.json")
    run_experiment(dataclasses.replace(spec, trials=TRIALS, threads=1,
                                       output_dir=str(out_dir)))
    return primary_csvs(out_dir)


def main() -> int:
    for name in SHIPPED:
        target = GOLDEN / name
        scratch = target.with_name(f".{name}.run")
        shutil.rmtree(scratch, ignore_errors=True)
        csvs = run_shipped(name, scratch)
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        for csv in csvs:
            shutil.copyfile(csv, target / csv.name)
        shutil.rmtree(scratch)
        print(f"{name}: {len(csvs)} CSVs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
