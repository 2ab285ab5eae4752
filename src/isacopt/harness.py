"""Experiment harness: seeded studies with CSV output and JSON sidecars.

Three experiment kinds, each an entry of ``KINDS`` with the sweeps it reads
and the function that runs it; ``run_experiment`` runs any of them:

* ``convergence`` - objective trajectories of the alternating loop over a
  sweep of radar weights, aggregated over seeded trials.
* ``scaling``     - final objective and phase-stage wall time of both phase
  solvers as the surface size grows.
* ``ratio``       - Gaussian-randomization approximation ratio versus the
  number of randomized samples, against the unit-diagonal relaxation bound.

Each trial's inputs are drawn here (``_trial_inputs``) and handed to the
kind's trial function, which returns the raw CSV rows the trial
contributes; an experiment prefixes them with the sweep key and takes each
aggregate over a column of them, so a sweep point whose every trial raised
adds no aggregate row.  Every primary CSV is deterministic for a fixed
config and master seed, whatever the number of worker processes;
wall-clock measurements are written to separate ``*_timing.csv`` files
that are excluded from the determinism contract.  Each CSV gets a
``.meta.json`` sidecar with the fully resolved configuration, the hash of
its scientific fields and the trials behind it that raised (in their draw
or in their solve), which are skipped rather than fatal.
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
import os
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .alternating import IRS_METHODS, SolverOptions, run_alternating
from .errors import (COUNT, NON_NEGATIVE, UNIT, ConfigError, require_finite,
                     require_integer)
from .precoder import target_check_bytes, validate_beampattern_target
from .ratio import (approximation_ratio_study, build_quadratic_terms,
                    solve_unit_diag_relaxation, study_bytes, u3_rank_bound)
from .scene import (ChannelSet, SceneConfig, convert_suffixed, make_channels,
                    scene_config_from_dict)

log = logging.getLogger(__name__)


def beta_tag(beta: float) -> str:
    """The file-name tag of a radar weight in the convergence CSV names."""
    return f"beta{beta:g}"


# Each sweep with the key that tells its points apart and its name for it.
SWEEP_KEYS = {"beta_values": (beta_tag, "the file tag"),
              "l_values": (int, "the value"),
              "n_g_grid": (int, "the value")}


@dataclass
class ExperimentSpec:
    """One experiment: kind, scene, solver knobs, sweeps and bookkeeping.

    Every field is checked here, once: its type and range; the sweeps the
    kind reads (``KINDS``), each non-empty with points of distinct
    keys (``SWEEP_KEYS``: the file tag of a radar weight, the value of a
    count), and the others empty; a radar weight below 1 for ratio, whose
    form A = U3 is zero at 1; the bytes of the beampattern check's arrays
    (``target_check_bytes``) and of each surface's per-trial arrays, for
    ratio with the draws of the largest sample count, counted from their
    shapes against physical memory; and then a beampattern ball that holds
    a K-column precoder (``validate_beampattern_target``).
    """

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
        require_integer(self, {
            "trials": COUNT, "threads": COUNT, "l_values[]": COUNT,
            "n_g_grid[]": COUNT, "master_seed": NON_NEGATIVE})
        require_finite(self, {"beta_values[]": UNIT})
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, "
                              f"got {self.output_dir!r}")
        if self.kind not in KINDS:
            raise ConfigError(
                f"kind must be one of {tuple(KINDS)}, got '{self.kind}'")
        reads = KINDS[self.kind][0]
        for name in (*reads, *(n for n in SWEEP_KEYS if n not in reads)):
            points, (key, words) = getattr(self, name), SWEEP_KEYS[name]
            if name not in reads and points:
                raise ConfigError(f"a {self.kind} experiment does not read "
                                  f"{name}, which must be empty")
            if name in reads and not points:
                raise ConfigError(
                    f"{self.kind} experiment needs a non-empty {name} sweep")
            seen = {}
            for i, value in enumerate(points):
                j = seen.setdefault(key(value), i)
                if j != i:
                    raise ConfigError(
                        f"{name}[{j}] = {points[j]!r} and {name}[{i}] = "
                        f"{value!r} share {words} {key(value)!r}")
        if self.kind == "ratio" and self.scene.beta == 1.0:
            raise ConfigError(
                "scene.beta = 1: the ratio study's form A = U3 carries the "
                "weight 1 - beta, so it is zero and bounds no ratio")
        self._count_memory()
        # R_D depends on no swept field: one check covers every trial
        validate_beampattern_target(self.scene)

    def _count_memory(self):
        """ConfigError unless the arrays of the beampattern check and of a
        trial on each surface, counted from their shapes, fit in physical
        memory; for ratio, the largest surface with the largest sample
        count too."""
        n, k, ratio = self.scene.n_tx, self.scene.n_users, self.kind == "ratio"

        def trial(l, n_g=0):
            return (_trial_bytes(l, n, k)
                    + (study_bytes(l, n_g, k, n) if ratio else 0))

        surfaces = ({"irs_rows * irs_cols": self.scene.n_irs}
                    if self.kind == "convergence" else
                    {f"l_values[{i}]": l for i, l in enumerate(self.l_values)})
        needs = [(f"n_tx = {n}, n_users = {k}: the beampattern check's arrays",
                  target_check_bytes(n, k))]
        arrays = f"a trial's arrays at n_tx = {n}, n_users = {k}"
        needs += [(f"{name} = {l}: {arrays}", trial(l))
                  for name, l in surfaces.items()]
        if ratio:
            i = max(range(len(self.n_g_grid)), key=self.n_g_grid.__getitem__)
            needs.append((f"n_g_grid[{i}] = {self.n_g_grid[i]}: {arrays}",
                          trial(max(self.l_values), self.n_g_grid[i])))
        memory = _physical_memory()
        for what, need in needs:
            if need > memory:
                raise ConfigError(
                    f"{what} take {need / 2 ** 30:.4g} GiB and do not fit in "
                    f"memory ({memory / 2 ** 30:.4g} GiB)")


def _trial_bytes(l: int, n_tx: int, n_users: int) -> int:
    """Bytes of a trial's arrays sized by the scene, 16 an entry: the
    L x ``n_tx`` channel G, the ``n_users`` x L channel H, and the phase
    step's m x L surrogate rows and their m x m Gram matrix, m = 2 plus
    U3's rows (``u3_rank_bound``)."""
    m = 2 + u3_rank_bound(n_users, n_tx)
    return 16 * (l * (n_tx + n_users) + m * (l + m))


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass
class AggregateResult:
    """Outcome of one experiment: the CSVs it wrote and its failed trials."""

    files: list[str] = field(default_factory=list)
    trial_errors: list[dict] = field(default_factory=list)


def load_experiment_spec(source: str | Path | dict,
                         overrides: dict | None = None) -> ExperimentSpec:
    """Build an ExperimentSpec from a JSON file or a parsed dict, with the
    top-level fields in ``overrides`` set over the config's before it is
    checked."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: not valid JSON ({exc})") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{source}: cannot be read ({exc})") from exc
    else:
        raw = dict(source)
    if not isinstance(raw, dict):
        raise ConfigError("experiment spec must be a JSON object")
    kwargs = {**raw, **(overrides or {})}
    unknown = set(kwargs) - {f.name for f in fields(ExperimentSpec)}
    if unknown:
        raise ConfigError(f"experiment spec: unknown keys {sorted(unknown)}")
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
    """Plain-JSON view of the fully resolved experiment configuration, which
    loads back as a spec of the same numbers: alpha is written as its
    magnitude ``alpha_mag``, since each trial draws its phase."""
    out = dataclasses.asdict(spec)
    out["scene"]["alpha_mag"] = abs(out["scene"].pop("alpha"))
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


def write_tables(spec: ExperimentSpec, tables: list[tuple[str, list[str], list]],
                 trial_errors: list[dict] | tuple = ()) -> list[str]:
    """Write each (name, header, rows) table to ``<output_dir>/<name>.csv``
    with its sidecar; ``trial_errors`` are the records of the trials
    behind the rows that raised and were skipped.  Returns the CSV paths."""
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "config": resolved_spec_dict(spec),
        "config_sha256": config_hash(spec),
        "package": f"isacopt {_version}",
        "trial_errors": list(trial_errors),
    }
    paths = []
    for name, header, rows in tables:
        path = out_dir / f"{name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([format_cell(v) for v in row])
        with open(f"{path}.meta.json", "w", encoding="utf-8") as fh:
            json.dump({**meta, "columns": header}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(str(path))
    return paths


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """The header and rows of a UTF-8 CSV file; ConfigError unless every
    row has the header's number of fields."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header, rows = next(reader), []
            for row in reader:
                if len(row) != len(header):
                    raise ConfigError(
                        f"{path}: row {reader.line_num} has {len(row)} "
                        f"fields, the header {len(header)}")
                rows.append(row)
            return header, rows
    except (OSError, UnicodeDecodeError, StopIteration) as exc:
        raise ConfigError(f"{path}: not a UTF-8 CSV file with a header "
                          f"({type(exc).__name__}: {exc})") from exc


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


# Each trial worker takes (cfg, ch, rng, opts, trial) and returns the CSV
# rows it contributes, in column order and without the sweep key; a trial's
# rows come in a fixed number and order wherever one row per method, stage
# or sample count is returned.

def _convergence_trial(cfg, ch, rng, opts, trial):
    """(trial, iteration, g, SNR_R, SNR_C) per outer iteration, and
    (stage, seconds) per stage, summed over the outer iterations."""
    _, _, trace = run_alternating(ch, cfg, opts=opts, rng=rng)
    scores = zip(trace.objective_per_outer, trace.snr_radar_per_outer,
                 trace.snr_comm_per_outer)
    times = trace.wall_time_per_stage
    return ([(trial, i, *score) for i, score in enumerate(scores, 1)],
            [(stage, sum(t[stage] for t in times)) for stage in sorted(times[0])])


def _scaling_trial(cfg, ch, rng, opts, trial):
    """(method, trial, final g, outer iterations, phase-stage seconds, its
    share per outer iteration, total seconds) per phase solver."""
    rows = []
    for method in IRS_METHODS:
        # paired comparison: both methods start from one generator state
        method_opts = replace(opts, irs_method=method)
        tic = time.perf_counter()
        _, _, trace = run_alternating(ch, cfg, opts=method_opts,
                                      rng=copy.deepcopy(rng))
        total = time.perf_counter() - tic
        outer = len(trace.objective_per_outer)
        irs = sum(t["irs"] for t in trace.wall_time_per_stage)
        rows.append((method, trial, trace.objective_per_outer[-1], outer,
                     irs, irs / outer, total))
    return rows


def _ratio_trial(cfg, ch, rng, opts, trial, n_g_grid):
    """(n_g, trial, ratio, best objective, relaxation bound) per sample
    count."""
    precoder, _, _ = run_alternating(ch, cfg, opts=opts, rng=rng)
    a, _ = build_quadratic_terms(precoder, ch, cfg)
    r_star = solve_unit_diag_relaxation(a)
    return [(r.n_samples, trial, r.ratio, r.best_objective, r.sdp_objective)
            for r in approximation_ratio_study(a, r_star, n_g_grid, rng)]


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


def _run_trials(worker, spec: ExperimentSpec, cfgs: list[SceneConfig], *extra
                ) -> tuple[list[list], list[dict]]:
    """Run ``worker(cfg, ch, rng, spec.solver, trial, *extra)`` on each
    trial of each point p, drawn on ``cfgs[p]``, here or in chunks on a pool
    of min(``spec.threads``, trials, usable CPUs) spawned worker processes.

    Returns the results of each point in trial order, and the records of
    the trials that raised.
    """
    jobs = [(cfg, spec.master_seed, point, trial)
            for point, cfg in enumerate(cfgs) for trial in range(spec.trials)]
    guarded = functools.partial(_guarded, worker, spec.solver, extra)
    if spec.threads > 1:
        import multiprocessing      # here: half of the module's import time
        from concurrent.futures import ProcessPoolExecutor
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(spec.threads, len(jobs), cpus)
        with _one_blas_thread(), ProcessPoolExecutor(workers, mp_context=(
                multiprocessing.get_context("spawn"))) as pool:
            outcomes = list(pool.map(guarded, jobs, chunksize=math.ceil(
                len(jobs) / (4 * workers))))
    else:
        outcomes = map(guarded, jobs)
    results, errors = [[] for _ in cfgs], []
    for (_, _, point, trial), (result, error) in zip(jobs, outcomes):
        if error is None:
            results[point].append(result)
        else:
            errors.append(error)
            log.warning("trial skipped: point %d trial %d: %s", point, trial,
                        error["error"])
    return results, errors


def _guarded(worker, opts: SolverOptions, extra: tuple, job: tuple
             ) -> tuple[object, dict | None]:
    """Draw one trial's inputs and run it: (result, None), or (None,
    record) if the draw or the trial raised.

    A failing trial is skipped, not fatal; its record holds the
    (point, trial) index, the error and its traceback.
    """
    _, _, point, trial = job
    try:
        return worker(*_trial_inputs(*job), opts, trial, *extra), None
    except Exception as exc:
        return None, {"point": point, "trial": trial,
                      "error": f"{type(exc).__name__}: {exc}",
                      "traceback": traceback.format_exc()}


# --- aggregation (shared by writers and verification) -----------------------
#
# A sweep point with no surviving trial adds no aggregate row.

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


def _column(rows, index: int) -> np.ndarray:
    """Column ``index`` of ``rows`` as one 1-D float array; each aggregate
    is its mean or variance."""
    return np.array([row[index] for row in rows], dtype=float)


# --- experiments ------------------------------------------------------------

def _surface_scenes(spec: ExperimentSpec) -> list[SceneConfig]:
    """The scene on a near-square surface of each size in ``l_values``."""
    return [replace(spec.scene, irs_rows=rows_, irs_cols=cols_)
            for rows_, cols_ in (near_square_grid(int(l)) for l in spec.l_values)]


def _run_convergence(spec: ExperimentSpec) -> AggregateResult:
    """Objective trajectories per radar weight; one CSV triple per weight."""
    cfgs = [replace(spec.scene, beta=float(beta)) for beta in spec.beta_values]
    per_point, errors = _run_trials(_convergence_trial, spec, cfgs)
    result = AggregateResult(trial_errors=errors)
    for point, (beta, trials) in enumerate(zip(spec.beta_values, per_point)):
        tag = beta_tag(beta)
        timing = []
        # one stage's row of each trial
        for stages in zip(*(totals for _, totals in trials)):
            seconds = _column(stages, 1)
            timing.append((stages[0][0], seconds.mean(), seconds.var(),
                           len(stages)))
        result.files += write_tables(spec, [
            (f"convergence_raw_{tag}",
             ["trial", "iteration", "objective", "snr_radar", "snr_comm"],
             [row for rows, _ in trials for row in rows]),
            (f"convergence_{tag}",
             ["iteration", "mean_objective", "var_objective", "std_objective",
              "n_trials"],
             aggregate_convergence([[row[2] for row in rows]
                                    for rows, _ in trials])),
            (f"convergence_timing_{tag}",
             ["stage", "mean_seconds", "var_seconds", "n_trials"], timing),
        ], [e for e in errors if e["point"] == point])
        log.info("convergence beta=%g: %d/%d trials ok", beta, len(trials),
                 spec.trials)
    return result


def _run_scaling(spec: ExperimentSpec) -> AggregateResult:
    """Both phase solvers inside the full loop as the surface size grows;
    ``solver.irs_method`` is not read."""
    raw, agg, timing = [], [], []
    l0 = float(spec.l_values[0])
    per_point, errors = _run_trials(
        _scaling_trial, spec, _surface_scenes(spec))
    for l_total, trials in zip(spec.l_values, per_point):
        for rows in zip(*trials):       # one phase solver's row of each trial
            method, n = rows[0][0], len(rows)
            raw += [(l_total, *row) for row in rows]
            g, outer, irs, irs_per_outer, total = (_column(rows, i)
                                                  for i in range(2, 7))
            agg.append((l_total, method, g.mean(), g.var(), outer.mean(), n,
                        (float(l_total) / l0) ** 3.5))
            timing.append((l_total, method, irs.mean(), irs.var(),
                           irs_per_outer.mean(), total.mean(), n))
        log.info("scaling L=%d: %d/%d trials ok", l_total, len(trials),
                 spec.trials)
    return AggregateResult(write_tables(spec, [
        ("scaling_raw",
         ["l", "method", "trial", "final_objective", "outer_iterations"],
         [row[:5] for row in raw]),
        ("scaling",
         ["l", "method", "mean_final_objective", "var_final_objective",
          "mean_outer_iterations", "n_trials", "ipm_cost_ref_l35"], agg),
        ("scaling_raw_timing",
         ["l", "method", "trial", "irs_seconds", "irs_seconds_per_outer",
          "total_seconds"], [row[:3] + row[5:] for row in raw]),
        ("scaling_timing",
         ["l", "method", "mean_irs_seconds", "var_irs_seconds",
          "mean_irs_seconds_per_outer", "mean_total_seconds", "n_trials"],
         timing),
    ], errors), errors)


def _run_ratio(spec: ExperimentSpec) -> AggregateResult:
    """Randomization approximation ratio over the sample-count grid."""
    raw, agg = [], []
    per_point, errors = _run_trials(
        _ratio_trial, spec, _surface_scenes(spec), list(spec.n_g_grid))
    for l_total, trials in zip(spec.l_values, per_point):
        raw += [(l_total, *row) for rows in trials for row in rows]
        for rows in zip(*trials):       # one sample count's row of each trial
            ratio = _column(rows, 2)
            agg.append((l_total, rows[0][0], ratio.mean(), ratio.var(),
                        len(rows)))
        log.info("ratio L=%d: %d/%d trials ok", l_total, len(trials),
                 spec.trials)
    return AggregateResult(write_tables(spec, [
        ("ratio_raw",
         ["l", "n_g", "trial", "ratio", "best_objective", "sdp_objective"],
         raw),
        ("ratio", ["l", "n_g", "mean_ratio", "var_ratio", "n_trials"], agg),
    ], errors), errors)


# Each kind: the sweeps it reads (every other must be empty) and its runner.
KINDS = {"convergence": (("beta_values",), _run_convergence),
         "scaling": (("l_values",), _run_scaling),
         "ratio": (("l_values", "n_g_grid"), _run_ratio)}


def run_experiment(spec: ExperimentSpec) -> AggregateResult:
    """Run the experiment of its kind, once the output directory is made:
    a path that cannot be one fails before the first trial."""
    try:
        Path(spec.output_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir {spec.output_dir}: {exc}") from exc
    return KINDS[spec.kind][1](spec)
