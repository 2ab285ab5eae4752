"""Scale contract of the solver steps.

Scaling both noise powers by 2^k scales the objective, its matrix Omega
and every surrogate by 2^-k, exactly in floating point; scaling P_T by 4^k
and gamma by 16^k scales the covariances by 4^k and the precoder by 2^k.
Omega's top eigenpair comes from channel rows weighted by sqrt(d / d_max),
which no noise scaling changes, odd k included.  No rule of the solver
steps compares against an absolute level, so the run takes the same steps
and returns the same phases.  The same holds for
the ratio study under A -> 2^k A, whether 2^k enters through the weights
of A's rows, the rows or both, over the whole float range of each: the
chain reads A once, as one factor F with A = 2^s F^H F, so R* and every
ratio keep their bits and the reported objectives scale by exactly 2^k.
The SQUAREM cycles of both
minorization loops (``inner_max`` >= 3, and the unit-diagonal ascent) are
scale-free too: the steplength is a ratio of norms of phase or column
differences, which no scaling touches, the guard compares two objectives
and the stops are relative.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from isacopt import (SolverOptions, approximation_ratio_study,
                     build_quadratic_terms, make_channels, run_alternating,
                     scene_config_from_dict, solve_unit_diag_relaxation)
from isacopt.objective import OmegaRows, Precoder
from isacopt.scene import complex_normal

SCENE = {"n_tx": 16, "n_rx": 16, "n_users": 5, "irs_rows": 6, "irs_cols": 6,
         "power_budget_dbm": 30, "sigma2_radar_dbm": 0, "sigma2_comm_dbm": 0,
         "alpha_mag_db": -20, "rician_g_db": 0}
SCENES = {"slack-beta0.5": {"beta": 0.5},
          "slack-beta0.99": {"beta": 0.99},
          "binding-gamma0.1": {"beta": 0.5, "beampattern_tol": 0.1}}
# inner_max 1 runs the plain map, 3 one SQUAREM cycle, 20 cycles and
# plain maps after them
SOLVERS = {"minorization-1": SolverOptions(inner_max=1),
           "minorization-3": SolverOptions(inner_max=3),
           "minorization-20": SolverOptions(inner_max=20),
           "manifold-20": SolverOptions(inner_max=20, irs_method="manifold")}
# Odd noise exponents scale the square roots of the weights of Omega by an
# irrational factor, so they catch any rounding that depends on the scale.
SCALINGS = {"noise": (-300, -150, -149, 150, 151), "power": (-60, 60)}
SEEDS = range(5)
# The scale contract is the ratio chain's main guarantee, and the solver
# steps' too: CI runs it again under other BLAS kernels.
pytestmark = pytest.mark.kernels


def _scaled(cfg, kind, k):
    """Both noise powers times 2^k, or P_T times 4^k with gamma times 16^k."""
    if kind == "noise":
        return replace(cfg, sigma2_radar=cfg.sigma2_radar * 2.0 ** k,
                       sigma2_comm=cfg.sigma2_comm * 2.0 ** k)
    return replace(cfg, power_budget=cfg.power_budget * 4.0 ** k,
                   beampattern_tol=cfg.beampattern_tol * 16.0 ** k)


def _run(cfg, seed, opts, kind, k):
    scaled = _scaled(cfg, kind, k)
    rng = np.random.default_rng([seed, 1])
    ch = make_channels(cfg, rng)
    alpha = abs(cfg.alpha) * np.exp(2j * np.pi * rng.random())
    p, theta, trace = run_alternating(ch, replace(scaled, alpha=alpha), opts)
    if kind == "power":
        p.p *= 2.0 ** -k
    return (p.p.tobytes(), theta.theta.tobytes(),
            len(trace.objective_per_outer), trace.terminated_by)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("scene", SCENES)
@pytest.mark.parametrize("kind", SCALINGS)
def test_scaling_gives_the_same_bits(kind, scene, solver):
    # the precoder scales by 2^k with P_T, and is compared unscaled
    cfg = scene_config_from_dict({**SCENE, **SCENES[scene]})
    opts = SOLVERS[solver]
    moved = 0
    for seed in SEEDS:
        want = _run(cfg, seed, opts, kind, 0)
        for k in SCALINGS[kind]:
            assert _run(cfg, seed, opts, kind, k) == want, (seed, k)
        moved += want[1] != np.ones(cfg.n_irs, dtype=complex).tobytes()
    assert moved == len(SEEDS)      # the phases did move from all-ones


@pytest.mark.parametrize("l_rows,l_cols", [(2, 4), (6, 6)])
def test_ratio_study_scaling_gives_the_same_bits(l_rows, l_cols):
    cfg = replace(scene_config_from_dict({**SCENE, "beta": 0.5}),
                  irs_rows=l_rows, irs_cols=l_cols)
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 2])
        ch = make_channels(cfg, rng)
        p = complex_normal(rng, cfg.n_tx, cfg.n_users)
        p = Precoder(p * np.sqrt(cfg.power_budget / np.sum(np.abs(p) ** 2)))
        a, _ = build_quadratic_terms(p, ch, cfg)
        r_star = solve_unit_diag_relaxation(a)
        reports = approximation_ratio_study(a, r_star, [1, 100],
                                            np.random.default_rng(seed))
        # (i, j): the rows by 2^i and the weights by 2^j, A by 2^(2i + j).
        # At |2i + j| = 600 the squared columns of the relaxation's maps
        # would over- or underflow; (600, -1040) squares rows past the
        # largest float, (-520, 1000) below the smallest; and the weights
        # times 2^-1040 are subnormal (the shipped 500 exactly), with A at
        # its own scale and, with the rows as they are, subnormal too
        for i, j in ((0, -600), (0, -150), (0, -40), (0, 150), (0, 600),
                     (-300, 0), (300, 0), (600, -1040), (-520, 1000),
                     (520, -1040), (0, -1040)):
            a_k = OmegaRows(a.rows * 2.0 ** i, np.ldexp(a.weights, j))
            k = 2 * i + j
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r_k = solve_unit_diag_relaxation(a_k)
                got = approximation_ratio_study(a_k, r_k, [1, 100],
                                                np.random.default_rng(seed))
            assert np.asarray(r_k).tobytes() == np.asarray(r_star).tobytes(), (
                seed, i, j)
            # math.ldexp rounds once, to a subnormal float too
            assert [(rep.ratio, rep.best_objective, rep.sdp_objective)
                    for rep in got] == [
                (rep.ratio, math.ldexp(rep.best_objective, k),
                 math.ldexp(rep.sdp_objective, k)) for rep in reports], (
                seed, i, j)
