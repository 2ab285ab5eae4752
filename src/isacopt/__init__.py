"""Alternating precoder / surface-phase design for sensing-and-communication.

Library core plus an experiment harness with a CLI front end (``isac``).
"""

__version__ = "0.1.0"

from .errors import ConfigError, MonotonicityError, SolverError
from .scene import (ChannelSet, SceneConfig, db_to_linear, dbm_to_watts,
                    linear_to_db, load_scene_config, make_channels,
                    rician_channel, scene_config_from_dict, ula_spacing_check,
                    ula_steering, upa_steering)
from .objective import (IrsPhase, Precoder, build_omega,
                        effective_comm_channel, effective_radar_channel,
                        quartic_kernels, snr_comm, snr_radar, weighted_snr)
from .precoder import (RandomizationReport, RelaxedCovariance,
                       approximation_ratio_study, default_beampattern_target,
                       dykstra_project, factor_precoder, precoder_objective,
                       project_ball, project_psd, project_spectrahedron,
                       relaxed_dual_bound, relaxed_objective, solve_relaxed,
                       solve_unit_diag_relaxation, unit_diag_dual_bound)
from .irs import (InnerTrace, build_quadratic_terms, build_quartic_surrogate,
                  irs_phase_update, linear_surrogate_vectors,
                  solve_irs_manifold, solve_irs_minorization)
from .alternating import RunTrace, SolverOptions, run_alternating
from .harness import (AggregateResult, ExperimentSpec, load_experiment_spec,
                      run_bench, run_convergence_experiment, run_experiment,
                      run_ratio_experiment, run_scaling_experiment)

__all__ = [name for name in dir() if not name.startswith("_")]
