"""Command-line front end.

    isac run --config exp.json --out results/ [--seed N] [--trials N] [--threads N]
    isac validate-config --config exp.json
    isac plotdata --csv results/convergence_beta0.5.csv

Exit codes: 0 success, 2 configuration error, 3 solver error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .errors import ConfigError, SolverError
from .harness import (ExperimentSpec, load_experiment_spec, read_csv_rows,
                      resolved_spec_dict, run_experiment)
from .scene import ula_spacing_check


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isac",
        description="Seeded experiments for the alternating precoder / "
                    "surface-phase design")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment described by a JSON config")
    run_p.add_argument("--config", required=True, help="experiment JSON file")
    run_p.add_argument("--out", help="output directory (overrides the config)")
    run_p.add_argument("--seed", type=int, help="master seed override")
    run_p.add_argument("--trials", type=int, help="trial count override")
    run_p.add_argument("--threads", type=int, help="worker process count")

    val_p = sub.add_parser("validate-config", help="check a config and print it resolved")
    val_p.add_argument("--config", required=True, help="experiment JSON file")

    plot_p = sub.add_parser("plotdata",
                            help="re-emit a result CSV as gnuplot-style columns")
    plot_p.add_argument("--csv", required=True, help="result CSV to convert")
    plot_p.add_argument("--out", help="output .dat path (default: alongside)")
    return parser


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    updates = {}
    if args.out:
        updates["output_dir"] = args.out
    if args.seed is not None:
        updates["master_seed"] = args.seed
    if args.trials is not None:
        updates["trials"] = args.trials
    if args.threads is not None:
        updates["threads"] = args.threads
    return dataclasses.replace(spec, **updates) if updates else spec


def _cmd_run(args) -> int:
    spec = _apply_overrides(load_experiment_spec(args.config), args)
    result = run_experiment(spec)
    for path in result.files:
        print(path)
    if result.trial_errors:
        print(f"{len(result.trial_errors)} trial(s) failed and were skipped:",
              file=sys.stderr)
        for err in result.trial_errors:
            print(f"  point {err['point']} trial {err['trial']}: {err['error']}",
                  file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    spec = load_experiment_spec(args.config)
    print(json.dumps(resolved_spec_dict(spec), indent=2, sort_keys=True))
    if not ula_spacing_check(spec.scene):
        print(f"warning: array spacing d/lambda = "
              f"{spec.scene.spacing_over_lambda} differs from the "
              f"conventional 0.5", file=sys.stderr)
    print("config ok", file=sys.stderr)
    return 0


def _cmd_plotdata(args) -> int:
    src = Path(args.csv)
    header, rows = read_csv_rows(src)
    out = Path(args.out) if args.out else src.with_suffix(".dat")
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("# " + " ".join(header) + "\n")
            for row in rows:
                fh.write(" ".join(row) + "\n")
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc}") from exc
    print(out)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "validate-config": _cmd_validate,
               "plotdata": _cmd_plotdata}[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
