"""Alternating optimization of the precoder and the surface phases.

The channel constants that do not change during a run (G^T, conj(G),
conj(H), conj(a) and the objective's weights; ``objective.ChannelConstants``,
the phase step's channel input) are formed once per run, not cached on
the ``ChannelSet``, so an outer iteration does only the theta- and
P-dependent work.  It works from the effective channels at the current
phases (``objective.EffectiveChannels``): it solves the relaxed precoder
problem from them, recovers a K-column precoder deterministically
(``factor_precoder``, which hands over its nonzero columns P_nz) and
scores it there (``EffectiveChannels.score``), then updates the phases
with the ascent-safeguarded closed-form step.  The step starts from that
``objective.ScoredPoint`` and returns the one at the new phases, the
incumbent, whose channels the next outer iteration works from.  A
recovered precoder that scores below the incumbent is dropped for it
(``RunTrace.precoder_dips``).
Termination follows the relative-change rule |g(t+1) - g(t)| / g(t) <=
eps_rel, checked from the second outer iteration on, with a hard iteration
cap.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (COUNT, POSITIVE, ConfigError, SolverError,
                     require_finite, require_integer)
from .irs import solve_irs_manifold, solve_irs_minorization
from .objective import ChannelConstants, IrsPhase, Precoder, ScoredPoint
# Unused here since the loop scores on the effective channels; kept for
# the tracer, which wraps them here by name.
from .objective import build_omega, snr_comm, snr_radar  # noqa: F401
from .precoder import factor_precoder, solve_relaxed
# Unused here since the solvers read R_D from the scene and the loop scores
# on the effective channels; kept for the tracer, which wraps them by name.
from .precoder import (default_beampattern_target,  # noqa: F401
                       precoder_objective, relaxed_objective)
from .scene import ChannelSet, SceneConfig

log = logging.getLogger(__name__)

IRS_METHODS = ("minorization", "manifold")


@dataclass
class SolverOptions:
    """Knobs of the alternating loop and its sub-solvers."""

    eps_rel: float = 0.01        # relative-change stopping threshold
    t_max: int = 20              # outer iteration cap
    inner_max: int = 1           # phase-solver iterations per outer iteration
    irs_method: str = "minorization"

    def __post_init__(self):
        require_finite(self, {"eps_rel": POSITIVE})
        require_integer(self, {"t_max": COUNT, "inner_max": COUNT})
        if self.irs_method not in IRS_METHODS:
            raise ConfigError(f"irs_method must be one of {IRS_METHODS}")


@dataclass
class RunTrace:
    """Per-outer-iteration record of one alternating run."""

    objective_per_outer: list[float] = field(default_factory=list)
    snr_radar_per_outer: list[float] = field(default_factory=list)
    snr_comm_per_outer: list[float] = field(default_factory=list)
    relaxed_bound_per_outer: list[float] = field(default_factory=list)
    precoder_obj_per_outer: list[float] = field(default_factory=list)
    # seconds of "precoder", "recovery" and "irs" (the phase step, which
    # also forms the effective channels at the new phases)
    wall_time_per_stage: list[dict[str, float]] = field(default_factory=list)
    precoder_dips: list[int] = field(default_factory=list)
    line_search_failures: list[int] = field(default_factory=list)
    terminated_by: str = ""


def run_alternating(ch: ChannelSet, cfg: SceneConfig,
                    opts: SolverOptions | None = None,
                    rng: np.random.Generator | None = None
                    ) -> tuple[Precoder, IrsPhase, RunTrace]:
    """Alternate the two sub-problems until the stopping rule fires.

    Returns the final precoder, phases and the run trace.  The run starts
    from theta = 1.  R_D is the scene's ``default_beampattern_target``, PSD
    with trace P_T by construction.  Each outer iteration takes
    ``opts.inner_max`` steps of the phase solver ``opts.irs_method`` (fewer
    if it converges).  ``rng`` is unread: the loop draws nothing, and the
    keyword stays only because the benchmark's workloads pass it.
    Sub-solver failures propagate as SolverError with the failing stage
    named; a ball too tight for a K-column precoder raises ConfigError from
    the precoder stage, and channels whose shapes do not fit the scene raise
    it before the first.
    """
    opts = opts or SolverOptions()
    solve_irs = (solve_irs_minorization if opts.irs_method == "minorization"
                 else solve_irs_manifold)
    channels = ChannelConstants(ch, cfg).channels(
        IrsPhase.unit(np.ones(cfg.n_irs, dtype=complex)))
    trace = RunTrace()
    precoder: Precoder | None = None
    # the incumbent precoder's ScoredPoint on the current channels, as the
    # phase step returned it
    incumbent: ScoredPoint | None = None

    for t in range(1, opts.t_max + 1):
        times: dict[str, float] = {}
        try:
            tic = time.perf_counter()
            relaxed = solve_relaxed(channels, cfg)
            times["precoder"] = time.perf_counter() - tic

            tic = time.perf_counter()
            candidate = factor_precoder(relaxed, cfg)
            scored = channels.score(candidate.nonzero_columns())
            if incumbent is not None and incumbent.g > scored.g:
                # the recovered precoder fell short of the incumbent; keep it
                trace.precoder_dips.append(t)
                log.debug("outer %d: recovered precoder scored below the "
                          "previous one; keeping the incumbent", t)
                scored = incumbent
            else:
                precoder = candidate
            times["recovery"] = time.perf_counter() - tic

            tic = time.perf_counter()
            _, inner = solve_irs(precoder, scored, inner_max=opts.inner_max)
            if inner.line_search_failed:
                trace.line_search_failures.append(t)
                log.warning("outer %d: the Armijo line search found no "
                            "ascent step; the phase step ended early", t)
            incumbent = inner.end
            channels = incumbent.channels
            times["irs"] = time.perf_counter() - tic
        except SolverError as exc:
            exc.args = (f"outer iteration {t}: {exc.args[0] if exc.args else exc}",
                        *exc.args[1:])
            raise

        g = incumbent.g
        trace.objective_per_outer.append(g)
        trace.snr_radar_per_outer.append(incumbent.snr_radar)
        trace.snr_comm_per_outer.append(incumbent.snr_comm)
        trace.relaxed_bound_per_outer.append(relaxed.dual_bound)
        trace.precoder_obj_per_outer.append(scored.g)
        trace.wall_time_per_stage.append(times)

        if t >= 2:
            prev = trace.objective_per_outer[-2]
            if abs(g - prev) <= opts.eps_rel * abs(prev):
                trace.terminated_by = "tolerance"
                break
    if not trace.terminated_by:
        trace.terminated_by = "t_max"
    return precoder, channels.theta, trace
