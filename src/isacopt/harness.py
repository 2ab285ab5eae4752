"""Experiment harness: seeded studies with CSV output and JSON sidecars.

Four experiment kinds:

* ``convergence`` - objective trajectories of the alternating loop over a
  sweep of radar weights, aggregated over seeded trials.
* ``scaling``     - final objective and phase-stage wall time of both phase
  solvers as the surface size grows.
* ``ratio``       - Gaussian-randomization approximation ratio versus the
  number of randomized samples, against the unit-diagonal relaxation bound.
* ``bench``       - timings of the solver-path operations (phase update,
  relaxed precoder solve, inner phase iteration, unit-diagonal relaxation,
  ratio study) and checks of their results.

Every primary CSV is deterministic for a fixed config and master seed,
whatever the number of worker processes; wall-clock measurements are
written to separate ``*_timing.csv`` files that are excluded from the
determinism contract.  Each CSV gets a ``.meta.json`` sidecar with the
fully resolved configuration, the hash of its scientific fields and the
trials behind it that raised, which are skipped rather than fatal.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import functools
import hashlib
import json
import logging
import math
import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .alternating import IRS_METHODS, SolverOptions, run_alternating
from .errors import ConfigError, require_finite, require_integer
from .irs import (build_quadratic_terms, irs_phase_update,
                  solve_irs_minorization)
from .objective import IrsPhase, Precoder, build_omega
from .precoder import (approximation_ratio_study, default_beampattern_target,
                       relaxed_dual_bound, relaxed_objective, solve_relaxed,
                       solve_unit_diag_relaxation, unit_diag_dual_bound,
                       validate_beampattern_target)
from .scene import (ChannelSet, SceneConfig, complex_normal,
                    convert_suffixed, make_channels, scene_config_from_dict)

log = logging.getLogger(__name__)

EXPERIMENT_KINDS = ("convergence", "scaling", "ratio", "bench")


@dataclass
class ExperimentSpec:
    """One experiment: kind, scene, solver knobs, sweeps and bookkeeping."""

    kind: str
    scene: SceneConfig = field(default_factory=SceneConfig)
    solver: SolverOptions = field(default_factory=SolverOptions)
    beta_values: list[float] = field(default_factory=list)
    l_values: list[int] = field(default_factory=list)
    n_g_grid: list[int] = field(default_factory=list)
    trials: int = 1
    master_seed: int = 0
    output_dir: str = "out"
    threads: int = 1

    def __post_init__(self):
        for name in ("beta_values", "l_values", "n_g_grid"):
            if not isinstance(getattr(self, name), list):
                raise ConfigError(f"{name} must be a list")
        require_integer(self, ("trials", "master_seed", "threads",
                               "l_values[]", "n_g_grid[]"))
        require_finite(self, ("beta_values[]",))
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, "
                              f"got {self.output_dir!r}")
        if not all(0.0 <= beta <= 1.0 for beta in self.beta_values):
            raise ConfigError(f"beta_values must lie in [0, 1], "
                              f"got {self.beta_values}")
        for name in ("l_values", "n_g_grid"):
            if min(getattr(self, name), default=1) < 1:
                raise ConfigError(f"{name} must be >= 1, "
                                  f"got {getattr(self, name)}")
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"kind must be one of {EXPERIMENT_KINDS}, got '{self.kind}'")
        for name, low in (("trials", 1), ("threads", 1), ("master_seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.kind == "convergence" and not self.beta_values:
            raise ConfigError("convergence experiment needs a non-empty beta_values sweep")
        if self.kind in ("scaling", "ratio") and not self.l_values:
            raise ConfigError(f"{self.kind} experiment needs a non-empty l_values sweep")
        if self.kind == "ratio" and not self.n_g_grid:
            raise ConfigError("ratio experiment needs a non-empty n_g_grid")
        # R_D depends on no swept field: one check covers every trial
        validate_beampattern_target(self.scene)


@dataclass
class AggregateResult:
    """Outcome of one experiment: the CSVs it wrote and its failed trials."""

    files: list[str] = field(default_factory=list)
    trial_errors: list[dict] = field(default_factory=list)


def load_experiment_spec(source: str | Path | dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a JSON file or a parsed dict."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{source}: not valid JSON ({exc})") from exc
    else:
        raw = dict(source)
    if not isinstance(raw, dict):
        raise ConfigError("experiment spec must be a JSON object")
    known = {f.name for f in fields(ExperimentSpec)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"experiment spec: unknown keys {sorted(unknown)}")
    kwargs = dict(raw)
    if "scene" in kwargs:
        kwargs["scene"] = scene_config_from_dict(kwargs["scene"])
    if "solver" in kwargs:
        kwargs["solver"] = solver_options_from_dict(kwargs["solver"])
    return ExperimentSpec(**kwargs)


def solver_options_from_dict(raw: dict) -> SolverOptions:
    """SolverOptions from a JSON-style dict; eps_rel may be given in dB."""
    names = {f.name for f in fields(SolverOptions)}
    return SolverOptions(**convert_suffixed(raw, names, "solver config"))


def resolved_spec_dict(spec: ExperimentSpec) -> dict:
    """Plain-JSON view of the fully resolved experiment configuration."""
    out = dataclasses.asdict(spec)
    alpha = out["scene"]["alpha"]
    out["scene"]["alpha"] = [alpha.real, alpha.imag]
    return out


# The fields that determine the numbers an experiment produces; where they
# are written (output_dir) and how many workers compute them (threads) are
# left out of the hash.
SCIENCE_FIELDS = ("kind", "scene", "solver", "beta_values", "l_values",
                  "n_g_grid", "trials", "master_seed")


def config_hash(spec: ExperimentSpec) -> str:
    """SHA-256 of the scientific fields of the resolved configuration."""
    resolved = resolved_spec_dict(spec)
    blob = json.dumps({name: resolved[name] for name in SCIENCE_FIELDS},
                      sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# --- CSV plumbing ----------------------------------------------------------

def format_cell(value) -> str:
    """Lossless cell format: floats use shortest round-trip repr."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows, spec: ExperimentSpec,
              trial_errors: list[dict] | tuple = ()) -> Path:
    """Write the CSV and its sidecar; ``trial_errors`` are the records of
    the trials behind the rows that raised and were skipped."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])
    meta = {
        "columns": header,
        "config": resolved_spec_dict(spec),
        "config_sha256": config_hash(spec),
        "package": f"isacopt {_version}",
        "trial_errors": list(trial_errors),
    }
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


# --- per-trial machinery ----------------------------------------------------

def _trial_inputs(cfg: SceneConfig, master_seed: int, point: int, trial: int
                  ) -> tuple[SceneConfig, ChannelSet, np.random.Generator]:
    """One trial's scene, channels and generator, drawn in this order: a
    uniform phase for alpha (magnitude kept), the channels, then the
    generator is left to the solver."""
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, point, trial]))
    cfg = replace(cfg, alpha=abs(cfg.alpha) * np.exp(2j * np.pi * rng.random()))
    return cfg, make_channels(cfg, rng), rng


def near_square_grid(l_total: int) -> tuple[int, int]:
    """Factor L into (rows, cols) with rows the largest divisor <= sqrt(L)."""
    if l_total < 1:
        raise ConfigError(f"surface size must be >= 1, got {l_total}")
    rows = 1
    for d in range(1, int(math.isqrt(l_total)) + 1):
        if l_total % d == 0:
            rows = d
    return rows, l_total // rows


def _convergence_trial(args):
    cfg, opts, master_seed, point, trial = args
    cfg, ch, rng = _trial_inputs(cfg, master_seed, point, trial)
    _, _, trace = run_alternating(ch, cfg, opts=opts, rng=rng)
    stage_totals: dict[str, float] = {}
    for stage_times in trace.wall_time_per_stage:
        for stage, seconds in stage_times.items():
            stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds
    return {
        "trial": trial,
        "objectives": trace.objective_per_outer,
        "snr_radar": trace.snr_radar_per_outer,
        "snr_comm": trace.snr_comm_per_outer,
        "stage_totals": stage_totals,
    }


def _scaling_trial(args):
    cfg, opts, master_seed, point, trial = args
    cfg, ch, rng = _trial_inputs(cfg, master_seed, point, trial)
    out = {}
    for method in IRS_METHODS:
        # paired comparison: both methods start from one generator state
        method_opts = replace(opts, irs_method=method)
        tic = time.perf_counter()
        _, _, trace = run_alternating(ch, cfg, opts=method_opts,
                                      rng=copy.deepcopy(rng))
        total = time.perf_counter() - tic
        irs_time = sum(t.get("irs", 0.0) for t in trace.wall_time_per_stage)
        out[method] = {
            "trial": trial,
            "final_objective": trace.objective_per_outer[-1],
            "outer_iterations": len(trace.objective_per_outer),
            "irs_time": irs_time,
            "irs_time_per_outer": irs_time / len(trace.objective_per_outer),
            "total_time": total,
        }
    return out


def _ratio_trial(args):
    cfg, opts, n_g_grid, master_seed, point, trial = args
    cfg, ch, rng = _trial_inputs(cfg, master_seed, point, trial)
    precoder, _, _ = run_alternating(ch, cfg, opts=opts, rng=rng)
    a_mat, _ = build_quadratic_terms(precoder, ch, cfg)
    r_star = solve_unit_diag_relaxation(a_mat)
    reports = approximation_ratio_study(a_mat, r_star, n_g_grid, rng)
    return {
        "trial": trial,
        "reports": [(r.n_samples, r.ratio, r.best_objective, r.sdp_objective)
                    for r in reports],
    }


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


@contextlib.contextmanager
def _one_blas_thread():
    """Set BLAS to one thread in the environment for the block.

    A spawned worker imports numpy afresh, so BLAS reads this environment:
    one thread per worker instead of one per CPU in every worker.
    """
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _point_args(spec: ExperimentSpec, cfgs: list[SceneConfig], *extra
                ) -> list[list[tuple]]:
    """Worker arguments per sweep point, ending in (point, trial)."""
    return [[(cfg, spec.solver, *extra, spec.master_seed, point, t)
             for t in range(spec.trials)] for point, cfg in enumerate(cfgs)]


def _run_trials(worker, point_args: list[list[tuple]], threads: int
                ) -> tuple[list[list[dict]], list[dict]]:
    """Run the trials of every sweep point, here or in ``threads`` spawned
    worker processes, which take them in chunks from one pool.

    Returns the results of each point in trial order, and the records of
    the trials that raised.
    """
    flat = [args for args_of_point in point_args for args in args_of_point]
    guarded = functools.partial(_guarded, worker)
    if threads > 1:
        with _one_blas_thread(), ProcessPoolExecutor(
                threads, mp_context=multiprocessing.get_context("spawn")) as pool:
            outcomes = list(pool.map(
                guarded, flat, chunksize=math.ceil(len(flat) / (4 * threads))))
    else:
        outcomes = map(guarded, flat)
    results, errors = [[] for _ in point_args], []
    for args, (result, error) in zip(flat, outcomes):
        if error is None:
            results[args[-2]].append(result)
        else:
            errors.append(error)
            log.warning("trial skipped: point %d trial %d: %s", *args[-2:],
                        error["error"])
    return results, errors


def _guarded(worker, args) -> tuple[dict | None, dict | None]:
    """Run one trial: (result, None), or (None, record) if it raised.

    A failing trial is skipped, not fatal; its record holds the
    (point, trial) index, the error and its traceback.
    """
    try:
        return worker(args), None
    except Exception as exc:
        point, trial = args[-2:]
        return None, {"point": point, "trial": trial,
                      "error": f"{type(exc).__name__}: {exc}",
                      "traceback": traceback.format_exc()}


# --- aggregation (shared by writers and verification) -----------------------

def aggregate_convergence(curves: list[list[float]]) -> list[tuple]:
    """Per-iteration mean/variance/std with last-value carry-forward padding.

    Rows: (iteration, mean, variance, std, n_trials).
    """
    if not curves:
        return []
    t_max = max(len(c) for c in curves)
    padded = np.array([list(c) + [c[-1]] * (t_max - len(c)) for c in curves])
    mean = padded.mean(axis=0)
    var = padded.var(axis=0)
    std = np.sqrt(var)
    n = padded.shape[0]
    return [(i + 1, float(mean[i]), float(var[i]), float(std[i]), n)
            for i in range(t_max)]


def aggregate_mean_var(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.var())


# --- experiments ------------------------------------------------------------

def _surface_scenes(spec: ExperimentSpec) -> list[SceneConfig]:
    """The scene on a near-square surface of each size in ``l_values``."""
    return [replace(spec.scene, irs_rows=rows_, irs_cols=cols_)
            for rows_, cols_ in (near_square_grid(int(l)) for l in spec.l_values)]


def run_convergence_experiment(spec: ExperimentSpec) -> AggregateResult:
    """Objective trajectories per radar weight; one CSV pair per weight."""
    out_dir = Path(spec.output_dir)
    result = AggregateResult()
    cfgs = [replace(spec.scene, beta=float(beta)) for beta in spec.beta_values]
    per_point, result.trial_errors = _run_trials(
        _convergence_trial, _point_args(spec, cfgs), spec.threads)
    for point, (beta, trials) in enumerate(zip(spec.beta_values, per_point)):
        errors = [e for e in result.trial_errors if e["point"] == point]
        tag = f"beta{beta:g}"

        raw_rows = []
        for tr in trials:
            for i, (g, sr, sc) in enumerate(zip(tr["objectives"],
                                                tr["snr_radar"],
                                                tr["snr_comm"])):
                raw_rows.append((tr["trial"], i + 1, g, sr, sc))
        raw_path = write_csv(
            out_dir / f"convergence_raw_{tag}.csv",
            ["trial", "iteration", "objective", "snr_radar", "snr_comm"],
            raw_rows, spec, errors)

        agg_rows = aggregate_convergence([tr["objectives"] for tr in trials])
        agg_path = write_csv(
            out_dir / f"convergence_{tag}.csv",
            ["iteration", "mean_objective", "var_objective", "std_objective",
             "n_trials"],
            agg_rows, spec, errors)

        stages = sorted({s for tr in trials for s in tr["stage_totals"]})
        timing_rows = []
        for stage in stages:
            mean, var = aggregate_mean_var(
                [tr["stage_totals"].get(stage, 0.0) for tr in trials])
            timing_rows.append((stage, mean, var, len(trials)))
        timing_path = write_csv(
            out_dir / f"convergence_timing_{tag}.csv",
            ["stage", "mean_seconds", "var_seconds", "n_trials"],
            timing_rows, spec, errors)

        result.files += [str(raw_path), str(agg_path), str(timing_path)]
        log.info("convergence beta=%g: %d/%d trials ok", beta, len(trials),
                 spec.trials)
    return result


def run_scaling_experiment(spec: ExperimentSpec) -> AggregateResult:
    """Both phase solvers inside the full loop as the surface size grows;
    ``solver.irs_method`` is not read."""
    out_dir = Path(spec.output_dir)
    result = AggregateResult()
    raw_rows, raw_timing_rows, agg_rows, timing_rows = [], [], [], []
    l0 = float(spec.l_values[0])
    per_point, result.trial_errors = _run_trials(
        _scaling_trial, _point_args(spec, _surface_scenes(spec)), spec.threads)
    for l_total, trials in zip(spec.l_values, per_point):
        ipm_ref = (float(l_total) / l0) ** 3.5
        for method in IRS_METHODS:
            per = [tr[method] for tr in trials]
            for rec in per:
                raw_rows.append((l_total, method, rec["trial"],
                                 rec["final_objective"], rec["outer_iterations"]))
                raw_timing_rows.append((l_total, method, rec["trial"],
                                        rec["irs_time"], rec["irs_time_per_outer"],
                                        rec["total_time"]))
            mean_obj, var_obj = aggregate_mean_var(
                [r["final_objective"] for r in per])
            mean_outer, _ = aggregate_mean_var(
                [r["outer_iterations"] for r in per])
            agg_rows.append((l_total, method, mean_obj, var_obj, mean_outer,
                             len(per), ipm_ref))
            mean_irs, var_irs = aggregate_mean_var([r["irs_time"] for r in per])
            mean_per_outer, _ = aggregate_mean_var(
                [r["irs_time_per_outer"] for r in per])
            mean_total, _ = aggregate_mean_var([r["total_time"] for r in per])
            timing_rows.append((l_total, method, mean_irs, var_irs,
                                mean_per_outer, mean_total, len(per)))
        log.info("scaling L=%d: %d/%d trials ok", l_total, len(trials),
                 spec.trials)
    result.files.append(str(write_csv(
        out_dir / "scaling_raw.csv",
        ["l", "method", "trial", "final_objective", "outer_iterations"],
        raw_rows, spec, result.trial_errors)))
    result.files.append(str(write_csv(
        out_dir / "scaling.csv",
        ["l", "method", "mean_final_objective", "var_final_objective",
         "mean_outer_iterations", "n_trials", "ipm_cost_ref_l35"],
        agg_rows, spec, result.trial_errors)))
    result.files.append(str(write_csv(
        out_dir / "scaling_raw_timing.csv",
        ["l", "method", "trial", "irs_seconds", "irs_seconds_per_outer",
         "total_seconds"],
        raw_timing_rows, spec, result.trial_errors)))
    result.files.append(str(write_csv(
        out_dir / "scaling_timing.csv",
        ["l", "method", "mean_irs_seconds", "var_irs_seconds",
         "mean_irs_seconds_per_outer", "mean_total_seconds", "n_trials"],
        timing_rows, spec, result.trial_errors)))
    return result


def run_ratio_experiment(spec: ExperimentSpec) -> AggregateResult:
    """Randomization approximation ratio over the sample-count grid."""
    out_dir = Path(spec.output_dir)
    result = AggregateResult()
    raw_rows, agg_rows = [], []
    per_point, result.trial_errors = _run_trials(
        _ratio_trial,
        _point_args(spec, _surface_scenes(spec), list(spec.n_g_grid)),
        spec.threads)
    for l_total, trials in zip(spec.l_values, per_point):
        for tr in trials:
            for n_g, ratio, best, sdp in tr["reports"]:
                raw_rows.append((l_total, n_g, tr["trial"], ratio, best, sdp))
        for gi, n_g in enumerate(spec.n_g_grid):
            ratios = [tr["reports"][gi][1] for tr in trials]
            mean, var = aggregate_mean_var(ratios)
            agg_rows.append((l_total, int(n_g), mean, var, len(ratios)))
        log.info("ratio L=%d: %d/%d trials ok", l_total, len(trials),
                 spec.trials)
    result.files.append(str(write_csv(
        out_dir / "ratio_raw.csv",
        ["l", "n_g", "trial", "ratio", "best_objective", "sdp_objective"],
        raw_rows, spec, result.trial_errors)))
    result.files.append(str(write_csv(
        out_dir / "ratio.csv",
        ["l", "n_g", "mean_ratio", "var_ratio", "n_trials"],
        agg_rows, spec, result.trial_errors)))
    return result


def run_bench(spec: ExperimentSpec) -> AggregateResult:
    """Timings of the solver-path operations, and checks of their results."""
    out_dir = Path(spec.output_dir)
    result = AggregateResult()
    rng = np.random.default_rng(spec.master_seed)
    check_rows, timing_rows = [], []
    reps = 100

    l_irs = spec.scene.n_irs
    nu = complex_normal(rng, l_irs)
    updated = irs_phase_update(nu)
    check_rows.append(("irs_phase_update", l_irs, "max_modulus_error",
                       float(np.max(np.abs(np.abs(updated.theta) - 1.0)))))
    timing_rows.append(("irs_phase_update", l_irs, "closed_form",
                        _median_time(lambda: irs_phase_update(nu), reps), reps))

    cfg = spec.scene
    r_d = default_beampattern_target(cfg)

    # The relaxed precoder solve on one channel draw, once with a ball no
    # two trace-P_T covariances can leave (closed form) and once with a ball
    # a quarter of the closed-form point's distance from R_D (KKT search),
    # with the relative gap of each to its certified bound.
    ch = make_channels(cfg, rng)
    omega = build_omega(IrsPhase(np.ones(cfg.n_irs, dtype=complex)), ch, cfg)
    slack = replace(cfg, beampattern_tol=2.0 * cfg.power_budget ** 2)
    closed = solve_relaxed(omega, slack, r_d)
    check_rows.append(("solve_relaxed", cfg.n_tx, "closed_form_gap",
                       _closed_form_gap(omega, cfg,
                                        relaxed_objective(closed, omega))))
    binding = replace(cfg, beampattern_tol=0.25 * float(
        np.sum(np.abs(closed.s - r_d) ** 2)))
    kkt = solve_relaxed(omega, binding, r_d)
    value = relaxed_objective(kkt, omega)
    check_rows.append((
        "solve_relaxed", cfg.n_tx, "binding_certificate_gap",
        (relaxed_dual_bound(omega, binding, r_d, kkt.kkt_scale) - value) / value))
    for path_name, scene, n in (("closed_form", slack, reps),
                                ("binding", binding, 20)):
        timing_rows.append(("solve_relaxed", cfg.n_tx, path_name, _median_time(
            lambda: solve_relaxed(omega, scene, r_d), n), n))

    # One inner iteration of the phase solver on the paper's 6 x 6 surface
    # and on a 16 x 16 one.
    for rows_, cols_ in ((6, 6), (16, 16)):
        cfg_l = replace(cfg, irs_rows=rows_, irs_cols=cols_)
        ch_l = make_channels(cfg_l, rng)
        p = _random_precoder(cfg_l, rng)
        theta = IrsPhase(np.exp(2j * np.pi * rng.random(cfg_l.n_irs)))
        timing_rows.append((
            "solve_irs_minorization", cfg_l.n_irs, "inner_iteration",
            _median_time(lambda: solve_irs_minorization(
                theta, p, ch_l, cfg_l, inner_max=1), 20), 20))

    # The ratio study's unit-diagonal relaxation on the communication form
    # U3 of a random precoder, at the ratio config's two surface sizes:
    # the relative gap to its dual certificate and lambda_min(R*); and the
    # study itself at n_g = 10^4 on the 6 x 6 surface, from its own
    # generator so that the rows above do not depend on it.
    for rows_, cols_ in ((2, 4), (6, 6)):
        cfg_l = replace(cfg, irs_rows=rows_, irs_cols=cols_)
        ch_l = make_channels(cfg_l, rng)
        a_mat, _ = build_quadratic_terms(_random_precoder(cfg_l, rng), ch_l,
                                         cfg_l)
        r_star = solve_unit_diag_relaxation(a_mat)
        bound = unit_diag_dual_bound(a_mat, r_star)
        value = float(np.real(np.vdot(a_mat, r_star)))
        check_rows.append(("solve_unit_diag_relaxation", cfg_l.n_irs,
                           "unit_diag_certificate_gap", (bound - value) / bound))
        check_rows.append(("solve_unit_diag_relaxation", cfg_l.n_irs,
                           "lambda_min", float(np.linalg.eigvalsh(r_star)[0])))
        timing_rows.append((
            "solve_unit_diag_relaxation", cfg_l.n_irs, "power_method",
            _median_time(lambda: solve_unit_diag_relaxation(a_mat), 20), 20))
        if cfg_l.n_irs == 36:
            timing_rows.append((
                "approximation_ratio_study", cfg_l.n_irs, "n_g_10000",
                _median_time(lambda: approximation_ratio_study(
                    a_mat, r_star, [10_000], np.random.default_rng(0)), 5), 5))

    result.files.append(str(write_csv(
        out_dir / "bench.csv", ["op", "size", "metric", "value"],
        check_rows, spec)))
    result.files.append(str(write_csv(
        out_dir / "bench_timing.csv",
        ["op", "size", "path", "median_seconds", "reps"],
        timing_rows, spec)))
    return result


def _closed_form_gap(omega, cfg: SceneConfig, value: float) -> float:
    """Relative gap of ``value`` below P_T lambda_max(Omega) plus the
    allowance 4 N eps P_T ||Omega||_F, as in ``relaxed_dual_bound``."""
    err = 4.0 * cfg.n_tx * float(np.finfo(float).eps)
    bound = cfg.power_budget * (float(np.linalg.eigvalsh(omega)[-1])
                                + err * float(np.linalg.norm(omega)))
    return (bound - value) / bound


def _random_precoder(cfg: SceneConfig, rng: np.random.Generator) -> Precoder:
    p = complex_normal(rng, cfg.n_tx, cfg.n_users)
    return Precoder(p * math.sqrt(cfg.power_budget / np.sum(np.abs(p) ** 2)))


def _median_time(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        tic = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - tic)
    return float(np.median(samples))


def run_experiment(spec: ExperimentSpec) -> AggregateResult:
    """Dispatch on the experiment kind."""
    runner = {
        "convergence": run_convergence_experiment,
        "scaling": run_scaling_experiment,
        "ratio": run_ratio_experiment,
        "bench": run_bench,
    }[spec.kind]
    return runner(spec)
