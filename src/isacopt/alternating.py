"""Alternating optimization of the precoder and the surface phases.

One outer iteration rebuilds the objective matrix from the current phases,
solves the relaxed precoder problem, recovers a K-column precoder from it
deterministically (``factor_precoder``), then updates the phases with the
ascent-safeguarded closed-form step.  A recovered precoder that scores below
the previous one is dropped for it (``RunTrace.precoder_dips``).
Termination follows the relative-change rule |g(t+1) - g(t)| / g(t) <=
eps_rel, checked from the second outer iteration on, with a hard iteration
cap.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, SolverError, require_finite,
                     require_integer)
from .irs import solve_irs_manifold, solve_irs_minorization
from .objective import IrsPhase, Precoder, build_omega
# Unused here since the phase solvers report the snapshot; kept for the
# tracer, which wraps them here by name.
from .objective import snr_comm, snr_radar  # noqa: F401
from .precoder import (default_beampattern_target, factor_precoder,
                       precoder_objective, relaxed_objective, solve_relaxed)
from .scene import ChannelSet, SceneConfig

log = logging.getLogger(__name__)

IRS_METHODS = ("minorization", "manifold")
THETA_INITS = ("ones", "random")


@dataclass
class SolverOptions:
    """Knobs of the alternating loop and its sub-solvers."""

    eps_rel: float = 0.01        # relative-change stopping threshold
    t_max: int = 20              # outer iteration cap
    inner_max: int = 1           # phase-solver iterations per outer iteration
    irs_method: str = "minorization"
    theta_init: str = "ones"

    def __post_init__(self):
        require_finite(self, ("eps_rel",))
        require_integer(self, ("t_max", "inner_max"))
        if self.eps_rel <= 0:
            raise ConfigError(f"eps_rel must be positive, got {self.eps_rel}")
        if self.t_max < 1:
            raise ConfigError(f"t_max must be >= 1, got {self.t_max}")
        if self.inner_max < 1:
            raise ConfigError(f"inner_max must be >= 1, got {self.inner_max}")
        if self.irs_method not in IRS_METHODS:
            raise ConfigError(f"irs_method must be one of {IRS_METHODS}")
        if self.theta_init not in THETA_INITS:
            raise ConfigError(f"theta_init must be one of {THETA_INITS}")


@dataclass
class RunTrace:
    """Per-outer-iteration record of one alternating run."""

    objective_per_outer: list[float] = field(default_factory=list)
    snr_radar_per_outer: list[float] = field(default_factory=list)
    snr_comm_per_outer: list[float] = field(default_factory=list)
    relaxed_bound_per_outer: list[float] = field(default_factory=list)
    precoder_obj_per_outer: list[float] = field(default_factory=list)
    wall_time_per_stage: list[dict[str, float]] = field(default_factory=list)
    precoder_dips: list[int] = field(default_factory=list)
    line_search_failures: list[int] = field(default_factory=list)
    terminated_by: str = ""


def initial_phases(cfg: SceneConfig, opts: SolverOptions,
                   rng: np.random.Generator) -> IrsPhase:
    if opts.theta_init == "ones":
        return IrsPhase(np.ones(cfg.n_irs, dtype=complex))
    return IrsPhase(np.exp(2j * np.pi * rng.random(cfg.n_irs)))


def run_alternating(ch: ChannelSet, cfg: SceneConfig,
                    opts: SolverOptions | None = None,
                    rng: np.random.Generator | None = None
                    ) -> tuple[Precoder, IrsPhase, RunTrace]:
    """Alternate the two sub-problems until the stopping rule fires.

    Returns the final precoder, phases and the run trace.  R_D is the
    scene's ``default_beampattern_target``, PSD with trace P_T by
    construction.  Each outer iteration takes ``opts.inner_max`` steps of
    the phase solver ``opts.irs_method`` (fewer if it converges).  ``rng``
    draws only the initial phases of ``theta_init="random"``; without one,
    they come from ``np.random.default_rng(0)``.  Sub-solver failures
    propagate as SolverError with the failing stage named; a ball too tight
    for a K-column precoder raises ConfigError from the precoder stage.
    """
    opts = opts or SolverOptions()
    r_d = default_beampattern_target(cfg)
    rng = rng if rng is not None else np.random.default_rng(0)

    theta = initial_phases(cfg, opts, rng)
    trace = RunTrace()
    precoder: Precoder | None = None

    for t in range(1, opts.t_max + 1):
        times: dict[str, float] = {}
        try:
            tic = time.perf_counter()
            omega = build_omega(theta, ch, cfg)
            times["omega"] = time.perf_counter() - tic

            tic = time.perf_counter()
            relaxed = solve_relaxed(omega, cfg, r_d)
            times["precoder"] = time.perf_counter() - tic

            tic = time.perf_counter()
            candidate = factor_precoder(relaxed, omega, cfg, r_d)
            candidate_obj = precoder_objective(candidate, omega)
            incumbent_obj = (precoder_objective(precoder, omega)
                             if precoder is not None else -math.inf)
            if incumbent_obj > candidate_obj:
                # the recovered precoder fell short of the incumbent; keep it
                trace.precoder_dips.append(t)
                log.debug("outer %d: recovered precoder scored below the "
                          "previous one; keeping the incumbent", t)
                precoder_obj = incumbent_obj
            else:
                precoder, precoder_obj = candidate, candidate_obj
            times["recovery"] = time.perf_counter() - tic

            tic = time.perf_counter()
            if opts.irs_method == "minorization":
                theta, inner = solve_irs_minorization(
                    theta, precoder, ch, cfg, inner_max=opts.inner_max)
            else:
                theta, inner = solve_irs_manifold(
                    theta, precoder, ch, cfg, inner_max=opts.inner_max)
                if inner.line_search_failed:
                    trace.line_search_failures.append(t)
                    log.warning("outer %d: the Armijo line search found no "
                                "ascent step; the phase step ended early", t)
            times["irs"] = time.perf_counter() - tic
        except SolverError as exc:
            exc.args = (f"outer iteration {t}: {exc.args[0] if exc.args else exc}",
                        *exc.args[1:])
            raise

        g, s_r, s_c = inner.snapshot
        trace.objective_per_outer.append(g)
        trace.snr_radar_per_outer.append(s_r)
        trace.snr_comm_per_outer.append(s_c)
        trace.relaxed_bound_per_outer.append(    # a certified upper bound
            relaxed_objective(relaxed, omega) if relaxed.dual_bound is None
            else relaxed.dual_bound)
        trace.precoder_obj_per_outer.append(precoder_obj)
        trace.wall_time_per_stage.append(times)

        if t >= 2:
            prev = trace.objective_per_outer[-2]
            if abs(g - prev) <= opts.eps_rel * abs(prev):
                trace.terminated_by = "tolerance"
                break
    if not trace.terminated_by:
        trace.terminated_by = "t_max"
    return precoder, theta, trace
