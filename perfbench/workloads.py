"""Benchmark workloads: seeded inputs, one closed-loop trial, certification.

Inputs are drawn exactly as the experiment harness draws them: trial ``t``
of sweep point ``p`` under workload seed ``s`` uses the generator
``default_rng(SeedSequence([s, p, t]))``, which first draws the phase of the
round-trip coefficient, then the channels, and is then handed to the
solver.  The inputs cycle through the workload's schedule of sweep points,
taking the next trial index of each point in turn, so the points stay
interleaved whatever the number of inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from isacopt import alternating, irs, precoder, scene

# The shipped convergence scene (configs/convergence.json), written out so
# that later config edits do not change the benchmark.
PAPER_SCENE = {
    "n_tx": 16, "n_rx": 16, "n_users": 5, "irs_rows": 6, "irs_cols": 6,
    "power_budget_dbm": 30, "sigma2_radar_dbm": 0, "sigma2_comm_dbm": 0,
    "alpha_mag_db": -20, "rician_g_db": 0,
}


@dataclass(frozen=True)
class Workload:
    """A scene sweep, the solver knobs and the inputs per second of a run."""

    name: str
    points: tuple[dict, ...]       # scene overrides, one per sweep point
    t_max: int
    # Inputs per second of requested measurement: the trials per second of
    # the commit that defined the benchmark in a slow phase of its shared
    # 2-CPU machine (see README.md), so a run takes at most about that long.
    inputs_per_s: float
    n_g_grid: tuple[int, ...] = () # non-empty: run the ratio study too
    schedule: tuple[int, ...] = () # point order in the pool; default each once

    def opts(self) -> alternating.SolverOptions:
        return alternating.SolverOptions(eps_rel=0.01, t_max=self.t_max)

    def point_order(self) -> tuple[int, ...]:
        return self.schedule or tuple(range(len(self.points)))

    def pool_size(self, seconds: float) -> int:
        """Inputs for a measurement of ``seconds``: whole schedule cycles."""
        cycle = len(self.point_order())
        return cycle * max(1, round(self.inputs_per_s * seconds / cycle))


WORKLOADS = {w.name: w for w in (
    # The paper's operating point; the precoder stage dominates a trial.
    Workload("paper", tuple({"beta": b} for b in (0.01, 0.5, 0.99)),
             t_max=20, inputs_per_s=17.0),
    # The same loop on a 16x16 surface; the phase stage dominates.
    Workload("surface-l256", ({"beta": 0.9, "irs_rows": 16, "irs_cols": 16},),
             t_max=20, inputs_per_s=1.25),
    # The beampattern ball binds: Dykstra cycles, project_ball moves points
    # and random candidates are rejected.  Smaller gamma is left out because
    # its trials fail (every one at 0.1, some at 0.2; see README.md) and a
    # workload must run without failures.
    Workload("binding", tuple({"beta": 0.5, "beampattern_tol": g}
                              for g in (0.3, 0.4, 0.5)),
             t_max=20, inputs_per_s=8.5),
    # The shipped ratio study, the only user of the unit-diagonal relaxation.
    # An L=8 trial is about seven times faster than an L=36 one; running two
    # L=36 trials per L=8 trial keeps the median inside one mode instead of
    # on the gap between them.
    Workload("ratio", ({"beta": 0.9, "irs_rows": 2, "irs_cols": 4},
                      {"beta": 0.9, "irs_rows": 6, "irs_cols": 6}),
             t_max=10, inputs_per_s=1.8, n_g_grid=(10, 100, 1000, 10000),
             schedule=(0, 1, 1)),
)}


@dataclass
class TrialInput:
    index: int
    point: int
    cfg: scene.SceneConfig
    ch: scene.ChannelSet
    rng: np.random.Generator       # state after the channel draw; copy per run


@dataclass
class TrialOutput:
    precoder: np.ndarray
    theta: np.ndarray
    trace: alternating.RunTrace
    r_star: np.ndarray | None = None
    ratios: list[float] = field(default_factory=list)   # per n_g, grid order


def scene_config(wl: Workload, point: int) -> scene.SceneConfig:
    return scene.scene_config_from_dict({**PAPER_SCENE, **wl.points[point]})


def make_inputs(wl: Workload, seed: int, count: int) -> list[TrialInput]:
    """The first ``count`` seeded trial inputs of the workload."""
    configs = [scene_config(wl, p) for p in range(len(wl.points))]
    schedule = wl.point_order()
    drawn = [0] * len(wl.points)
    out = []
    for j in range(count):
        point = schedule[j % len(schedule)]
        trial, drawn[point] = drawn[point], drawn[point] + 1
        rng = np.random.default_rng(np.random.SeedSequence([seed, point, trial]))
        base = configs[point]
        cfg = replace(base, alpha=abs(base.alpha) * np.exp(2j * np.pi * rng.random()))
        ch = scene.make_channels(cfg, rng)
        out.append(TrialInput(index=j, point=point, cfg=cfg, ch=ch, rng=rng))
    return out


def run_trial(wl: Workload, inp: TrialInput, rng: np.random.Generator,
              opts: alternating.SolverOptions) -> TrialOutput:
    """One closed-loop trial: the alternating solve, then the ratio study."""
    p, theta, trace = alternating.run_alternating(inp.ch, inp.cfg, opts=opts,
                                                  rng=rng)
    out = TrialOutput(precoder=p.p, theta=theta.theta, trace=trace)
    if wl.n_g_grid:
        a_mat, _ = irs.build_quadratic_terms(p, inp.ch, inp.cfg)
        out.r_star = precoder.solve_unit_diag_relaxation(a_mat)
        reports = precoder.approximation_ratio_study(a_mat, out.r_star,
                                                     wl.n_g_grid, rng)
        out.ratios = [r.ratio for r in reports]
    return out


# --- certification ----------------------------------------------------------
#
# Tolerances are relative.  Power is rescaled exactly by the library, so
# only rounding is allowed there.
#
# Two known defects are measured, not gated (see README.md): R* can be
# slightly non-PSD (lambda_min), and when the beampattern ball binds the
# relaxed solve stops short of its optimum, so a feasible precoder can
# score above the "bound" it reports (bound_ratio_max > 1).

POWER_TOL = 1e-9
BALL_TOL = 1e-9
MODULUS_TOL = 1e-10
OBJECTIVE_TOL = 1e-9
ASCENT_TOL = 1e-9
RATIO_TOL = 1e-9
DIAG_TOL = 1e-9


def _channels(theta: np.ndarray, inp: TrialInput) -> tuple[np.ndarray, np.ndarray]:
    """Round-trip radar and downlink channels at theta, from the model."""
    ch = inp.ch
    t = ch.g.T @ (theta * ch.steer)
    return inp.cfg.alpha * np.outer(t, t), ch.f + (ch.h * theta[None, :]) @ ch.g


def weighted_snr(p: np.ndarray, theta: np.ndarray, inp: TrialInput) -> float:
    """The weighted SNR at (P, theta)."""
    cfg = inp.cfg
    c_r, c_c = _channels(theta, inp)
    return float(cfg.beta / cfg.sigma2_radar * np.sum(np.abs(c_r @ p) ** 2)
                 + (1.0 - cfg.beta) / cfg.sigma2_comm * np.sum(np.abs(c_c @ p) ** 2))


def precoder_bound(theta: np.ndarray, inp: TrialInput) -> float:
    """P_T lambda_max(Omega(theta)): no precoder of power P_T scores more.

    This drops the beampattern ball, so it is a certified upper bound on
    every workload and tight when the ball is slack.
    """
    cfg = inp.cfg
    c_r, c_c = _channels(theta, inp)
    omega = (cfg.beta / cfg.sigma2_radar * (c_r.conj().T @ c_r)
             + (1.0 - cfg.beta) / cfg.sigma2_comm * (c_c.conj().T @ c_c))
    return cfg.power_budget * float(np.linalg.eigvalsh(omega)[-1])


def certify(wl: Workload, inp: TrialInput, out: TrialOutput) -> list[str]:
    """Every check the output fails, as messages; empty when certified."""
    cfg, p, theta, tr = inp.cfg, out.precoder, out.theta, out.trace
    bad = []
    power = float(np.sum(np.abs(p) ** 2))
    if abs(power - cfg.power_budget) > POWER_TOL * cfg.power_budget:
        bad.append(f"power {power!r} != P_T {cfg.power_budget!r}")
    r_d = precoder.default_beampattern_target(cfg)
    dist2 = float(np.sum(np.abs(p @ p.conj().T - r_d) ** 2))
    if dist2 > cfg.beampattern_tol * (1.0 + BALL_TOL):
        bad.append(f"||PP^H - R_D||^2 = {dist2!r} > gamma {cfg.beampattern_tol!r}")
    modulus = float(np.max(np.abs(np.abs(theta) - 1.0)))
    if modulus > MODULUS_TOL:
        bad.append(f"theta modulus error {modulus!r}")
    g = weighted_snr(p, theta, inp)
    if abs(g - tr.objective_per_outer[-1]) > OBJECTIVE_TOL * g:
        bad.append(f"reported objective {tr.objective_per_outer[-1]!r} != {g!r}")
    bound = precoder_bound(theta, inp)
    if g > bound * (1.0 + OBJECTIVE_TOL):
        bad.append(f"objective {g!r} above the precoder bound {bound!r}")
    for t, (prev, cur) in enumerate(zip(tr.objective_per_outer,
                                        tr.objective_per_outer[1:]), 2):
        if cur < prev * (1.0 - ASCENT_TOL):
            bad.append(f"outer {t}: objective fell from {prev!r} to {cur!r}")
    if out.r_star is not None:
        diag = float(np.max(np.abs(np.diagonal(out.r_star) - 1.0)))
        if diag > DIAG_TOL:
            bad.append(f"R* diagonal error {diag!r}")
        for n_g, ratio in zip(wl.n_g_grid, out.ratios):
            if not 0.0 < ratio <= 1.0 + RATIO_TOL:
                bad.append(f"n_g={n_g}: approximation ratio {ratio!r} outside (0, 1]")
    return [f"trial {inp.index}: {msg}" for msg in bad]


def lambda_min(out: TrialOutput) -> float:
    """Smallest eigenvalue of R*; reported, not gated (R* may be non-PSD)."""
    return float(np.linalg.eigvalsh(out.r_star)[0])


def bound_ratios(out: TrialOutput) -> list[float]:
    """Precoder objective over the reported relaxed bound, per outer iteration."""
    tr = out.trace
    return [o / b for o, b in zip(tr.precoder_obj_per_outer,
                                  tr.relaxed_bound_per_outer)]
