"""Alternating precoder / surface-phase design for sensing-and-communication.

Library core plus a lazily loaded experiment harness with a CLI (``isac``).
"""

__version__ = "0.1.0"

from .errors import ConfigError, MonotonicityError, SolverError
from .scene import (ChannelSet, SceneConfig, db_to_linear, dbm_to_watts,
                    make_channels, rician_channel, scene_config_from_dict,
                    ula_spacing_check, ula_steering, upa_steering)
from .objective import (ChannelConstants, EffectiveChannels, IrsPhase,
                        OmegaRows, Precoder, ScoredPoint, build_omega,
                        quartic_kernels, snr_comm, snr_radar, weighted_snr)
from .precoder import (RelaxedCovariance, default_beampattern_target,
                       dykstra_project, factor_precoder, precoder_objective,
                       project_ball, project_psd, project_spectrahedron,
                       relaxed_objective, slack_bound, solve_relaxed)
from .irs import (InnerTrace, build_quartic_surrogate, irs_phase_update,
                  linear_surrogate_vectors, solve_irs_manifold,
                  solve_irs_minorization)
from .ratio import (RandomizationReport, approximation_ratio_study,
                    build_quadratic_terms, solve_unit_diag_relaxation,
                    unit_diag_dual_bound)
from .alternating import RunTrace, SolverOptions, run_alternating

_HARNESS_NAMES = ("AggregateResult", "ExperimentSpec", "load_experiment_spec",
                  "run_experiment")

__all__ = [n for n in dir() if not n.startswith("_")] + list(_HARNESS_NAMES)


def __getattr__(name):
    if name in _HARNESS_NAMES:
        from . import harness
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
