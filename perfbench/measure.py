"""Closed-loop measurement, end-to-end and per-layer metrics.

One client in one process issues each trial only after the previous one
completes, and runs every seeded input once.  A failed trial counts as
+inf wall time and as 0 objective and ratio, so turning a failure into a
result can never worsen a metric.

The shared machine this was built on speeds up and slows down by up to
40 % in phases lasting seconds to minutes, often longer than a run, so
repeating inputs and keeping the fastest time did not steady the figures.
Instead a fixed reference probe is timed between trials, and a trial's
cost is its wall time over that of the probes around it.  Input cost
varies too, which only more distinct inputs average out; hence one run
per input.
"""

from __future__ import annotations

import copy
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import tracing
import workloads as W

# setup_s is the median of set-up repeats made before and after the trials,
# so that it spans the run rather than one phase of the machine's speed.
SETUP_REPS_BEFORE, SETUP_REPS_AFTER = 2, 1
WARMUP_SEED = 0         # warm-up inputs, fixed so set-up work is too
WARMUP_T_MAX = 2        # outer iterations of each warm-up trial
TRIAL_SPAN = "bench.trial"


class ReferenceProbe:
    """A fixed unit of work timed between trials: small dense
    eigendecompositions and a pure-Python loop, about 1.3 ms together."""

    def __init__(self):
        a = np.random.default_rng(0).standard_normal((36, 36))
        self.a = a + a.T

    def __call__(self) -> float:
        tic = time.perf_counter()
        for _ in range(5):
            np.linalg.eigh(self.a)
        acc = 0
        for i in range(10000):
            acc += i * i
        return time.perf_counter() - tic


@dataclass
class LoopResult:
    outputs: dict[int, W.TrialOutput | None] = field(default_factory=dict)
    trial_s: dict[int, float] = field(default_factory=dict)
    probe_s: list[float] = field(default_factory=list)  # before, between, after
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.outputs)

    def record(self, inp: W.TrialInput, out, elapsed: float, err: str | None):
        self.outputs[inp.index] = out
        self.trial_s[inp.index] = elapsed
        if err is not None:
            self.failed += 1
            self.errors.append(err)

    def latencies(self) -> list[float]:
        return [self.trial_s[i] if out is not None else math.inf
                for i, out in self.outputs.items()]

    def costs(self) -> list[float]:
        """Each trial's wall time over the mean of the probes around it."""
        times = list(self.trial_s.values())
        return [t / (0.5 * (before + after)) for t, before, after
                in zip(times, self.probe_s, self.probe_s[1:])]

    def trials_per_s(self) -> float:
        return (self.attempted - self.failed) / sum(self.trial_s.values())


def attempt(trial, wl, inp, opts):
    """Run one trial; a raised exception is the trial's outcome, not ours."""
    rng = copy.deepcopy(inp.rng)        # every run of an input draws the same
    tic = time.perf_counter()
    try:
        out, err = trial(wl, inp, rng, opts), None
    except Exception:                   # any exception fails the trial only
        out, err = None, f"trial {inp.index}: {traceback.format_exc()}"
    return out, time.perf_counter() - tic, err


def same_output(a: W.TrialOutput | None, b: W.TrialOutput | None) -> bool:
    if a is None or b is None:
        return a is b
    return (a.trace.objective_per_outer == b.trace.objective_per_outer
            and np.array_equal(a.precoder, b.precoder)
            and np.array_equal(a.theta, b.theta) and a.ratios == b.ratios)


def closed_loop(wl: W.Workload, inputs: list[W.TrialInput]) -> LoopResult:
    """Run every input once, each trial after the previous one returned,
    with the reference probe timed before, between and after the trials."""
    opts, res, probe = wl.opts(), LoopResult(), ReferenceProbe()
    res.probe_s.append(probe())
    for inp in inputs:
        res.record(inp, *attempt(W.run_trial, wl, inp, opts))
        res.probe_s.append(probe())
    return res


def traced_loop(wl: W.Workload, seed: int, count: int
                ) -> tuple[tracing.Tracer, list[W.TrialInput], LoopResult, LoopResult]:
    """One untraced and one traced run of every input, back to back.

    Pairing the two runs of an input in time keeps slow phases of the
    machine from landing on one side only of the tracing-overhead
    comparison.  The inputs are generated under tracing too, for the
    set-up layer.
    """
    tracer = tracing.Tracer()
    with tracer:
        inputs = W.make_inputs(wl, seed, count)
    traced_trial = tracer.wrap(W.run_trial, TRIAL_SPAN)

    def trial(wl_, inp, rng, opts):
        tracer.trial = inp.index
        with tracer:
            return traced_trial(wl_, inp, rng, opts)

    opts, plain, traced = wl.opts(), LoopResult(), LoopResult()
    for inp in inputs:
        plain.record(inp, *attempt(W.run_trial, wl, inp, opts))
        traced.record(inp, *attempt(trial, wl, inp, opts))
    return tracer, inputs, plain, traced


def set_up(wl: W.Workload, seed: int, count: int, reps: int
           ) -> tuple[list[W.TrialInput], list[float]]:
    """Generate the inputs and warm up, ``reps`` times; the inputs and the
    time of each repeat.

    The warm-up runs one fixed input of every sweep point for WARMUP_T_MAX
    outer iterations: it reaches every code path a trial takes, and its
    work does not change with the workload seed.
    """
    warm_opts = replace(wl.opts(), t_max=WARMUP_T_MAX)
    times, inputs = [], None
    for _ in range(reps):
        inputs = None       # one input set alive at a time, for peak_rss_mb
        tic = time.perf_counter()
        inputs = W.make_inputs(wl, seed, count)
        first_of_point: dict[int, W.TrialInput] = {}
        for inp in W.make_inputs(wl, WARMUP_SEED, len(wl.point_order())):
            first_of_point.setdefault(inp.point, inp)
        for inp in first_of_point.values():
            attempt(W.run_trial, wl, inp, warm_opts)
        times.append(time.perf_counter() - tic)
    return inputs, times


def certify_all(wl: W.Workload, inputs: list[W.TrialInput],
                outputs: dict[int, W.TrialOutput | None]) -> list[str]:
    bad = []
    for inp in inputs:
        if outputs[inp.index] is not None:
            bad += W.certify(wl, inp, outputs[inp.index])
    return bad


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; a failed trial's +inf sorts last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def quality_ratio(wl: W.Workload, inp: W.TrialInput,
                  out: W.TrialOutput | None) -> float:
    """Achieved value over a certified upper bound; 0 for a failed trial.

    On the ratio workload this is the phase study's ratio at the largest
    n_g; on the others, the final objective over the best any precoder of
    full power could score at the final phases (the ball dropped).
    """
    if out is None:
        return 0.0
    if wl.n_g_grid:
        return out.ratios[int(np.argmax(wl.n_g_grid))]
    return W.weighted_snr(out.precoder, out.theta, inp) / W.precoder_bound(out.theta, inp)


def objective_db(out: W.TrialOutput | None) -> float:
    """Final weighted SNR in dB, floored at 0 dB, which a failure scores.

    The mean is taken in dB because the linear SNR spans orders of
    magnitude across channel draws: its mean over a run moved by 27 %
    between seeds on the ratio workload.
    """
    if out is None:
        return 0.0
    return max(0.0, 10.0 * math.log10(out.trace.objective_per_outer[-1]))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl: W.Workload, inputs: list[W.TrialInput], loop: LoopResult,
               setup_s: float, rss_mb: float) -> dict:
    outs = [loop.outputs[inp.index] for inp in inputs]
    costs = loop.costs()
    done = loop.attempted - loop.failed
    failed_as_inf = [c if o is not None else math.inf for c, o in zip(costs, outs)]
    return {
        "setup_s": (setup_s, "s"),
        "trial_cost_mean": (sum(costs) / done if done else math.inf, "probe"),
        "trial_cost_p50": (percentile(failed_as_inf, 50), "probe"),
        "trial_cost_p75": (percentile(failed_as_inf, 75), "probe"),
        "objective_db_mean": (statistics.fmean(map(objective_db, outs)), "dB"),
        "approx_ratio_mean": (statistics.fmean(
            quality_ratio(wl, inp, o) for inp, o in zip(inputs, outs)), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def wall_times(loop: LoopResult) -> dict:
    """Uncalibrated wall-time figures, printed for reading, not gated."""
    return {
        "trials_per_s": loop.trials_per_s(),
        "trial_s_p50": percentile(loop.latencies(), 50),
        "trial_s_p75": percentile(loop.latencies(), 75),
        "probe_ms_min": 1e3 * min(loop.probe_s),
        "probe_ms_median": 1e3 * statistics.median(loop.probe_s),
        "probe_ms_max": 1e3 * max(loop.probe_s),
    }


def per_layer(tracer: tracing.Tracer, traced: LoopResult,
              untraced: LoopResult) -> dict:
    spans = tracer.spans
    calls, secs = tracing.totals(spans)
    counts = tracer.counts
    notes = tracer.notes
    outs = [o for o in traced.outputs.values() if o is not None]
    traces = [o.trace for o in outs]
    bound_ratios = [r for o in outs for r in W.bound_ratios(o)]

    def share(num, den):
        return num / den if den else 0.0

    def counted(name):
        return sum(n for (fn, _), n in counts.items() if fn == name)

    m = {
        "scene.make_channels.s": (secs["scene.make_channels"], "s"),
        "objective.build_omega.calls": (calls["objective.build_omega"], "count"),
        "objective.build_omega.s": (secs["objective.build_omega"], "s"),
        "objective.weighted_snr.calls": (calls["objective.weighted_snr"], "count"),
        "objective.weighted_snr.s": (secs["objective.weighted_snr"], "s"),
        "precoder.solve_relaxed.calls": (calls["precoder.solve_relaxed"], "count"),
        "precoder.solve_relaxed.s": (secs["precoder.solve_relaxed"], "s"),
        "precoder.dykstra_project.calls": (calls["precoder.dykstra_project"], "count"),
        "precoder.dykstra_cycles": (counted("precoder.project_spectrahedron"),
                                    "count"),
        "precoder.project_ball.active_ratio": (
            share(notes["precoder.project_ball"], counted("precoder.project_ball")),
            "ratio"),
        "precoder.factor_precoder.s": (secs["precoder.factor_precoder"], "s"),
        "precoder.factor_precoder.draws": (
            counts[("precoder.complex_normal", "precoder.factor_precoder")], "count"),
        "precoder.bound_ratio_mean": (
            statistics.fmean(bound_ratios) if outs else 0.0, "ratio"),
        "precoder.bound_ratio_max": (max(bound_ratios, default=0.0), "ratio"),
        "alternating.precoder_dips": (sum(len(t.precoder_dips) for t in traces),
                                      "count"),
        "precoder.solve_unit_diag_relaxation.s": (
            secs["precoder.solve_unit_diag_relaxation"], "s"),
        "precoder.unit_diag.psd_cycles": (
            counts[("precoder.project_psd", "precoder.solve_unit_diag_relaxation")],
            "count"),
        "precoder.unit_diag.lambda_min": (
            min((W.lambda_min(o) for o in outs if o.r_star is not None), default=0.0),
            "1"),
        "precoder.approximation_ratio_study.s": (
            secs["precoder.approximation_ratio_study"], "s"),
        "irs.solve_irs_minorization.calls": (calls["irs.solve_irs_minorization"],
                                             "count"),
        "irs.solve_irs_minorization.s": (secs["irs.solve_irs_minorization"], "s"),
        "irs.inner_iterations": (int(notes["irs.solve_irs_minorization"]), "count"),
        "irs.build_quartic_surrogate.s": (secs["irs.build_quartic_surrogate"], "s"),
        "irs.quartic_kernels.s": (secs["irs.quartic_kernels"], "s"),
        "irs.ascent_anchor.s": (secs["irs.ascent_anchor"], "s"),
        "irs.ascent_anchor.active_ratio": (
            share(notes["irs.ascent_anchor"], calls["irs.ascent_anchor"]), "ratio"),
        "irs.build_quadratic_terms.s": (secs["irs.build_quadratic_terms"], "s"),
        "irs.irs_phase_update.s": (secs["irs.irs_phase_update"], "s"),
        "alternating.run_alternating.s": (secs["alternating.run_alternating"], "s"),
        "alternating.outer_iterations": (
            sum(len(t.objective_per_outer) for t in traces), "count"),
        "alternating.tolerance_stop_ratio": (
            share(sum(t.terminated_by == "tolerance" for t in traces), len(traces)),
            "ratio"),
        "trace.overhead_frac": (
            1.0 - traced.trials_per_s() / untraced.trials_per_s(), "ratio"),
    }
    trial_s = secs[TRIAL_SPAN]
    layer_self = tracing.layer_self_times(spans, tracing.self_times(spans))
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
        m[f"{layer}.self_share"] = (share(layer_self[layer], trial_s), "ratio")
    return m
