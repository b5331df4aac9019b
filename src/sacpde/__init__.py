"""Structure-preserving solvers for the stochastic Allen-Cahn equation.

P1 elements on periodic path-simplex meshes with a semi-implicit two-level
time stepper whose per-step energy balance holds to rounding, a Fourier
reference solver on the circle, exactly coupled Brownian paths, and the
Monte Carlo studies (strong rates in time and space, energy moments,
time-increment scaling) built on them.
"""

from .errors import (
    ConfigError,
    ContractError,
    SolverError,
    StepFailure,
    ValidationError,
)
from .harness import (
    ExperimentPlan,
    StudyResult,
    fit_loglog,
    identity_suite,
    increment_study,
    moment_study,
    spatial_rate_study,
    temporal_rate_study,
)
from .mesh_fem import (
    FemSpace,
    PeriodicMesh,
    l2_project,
    prolongation_matrix,
)
from .model import (
    EnergyBreakdown,
    Sigma,
    dpsi,
    energy,
    f_mixed,
    initial_datum,
    make_sigma,
    monotonicity_gap,
)
from .quadrature import monomial_integral, simplex_rule, vertex_rule
from .reports import VERSION, config_hash, json17, write_csv, write_json
from .spectral import (
    SpectralBackend,
    SpectralSpace,
    evaluate_on_mesh,
    spectral_energy,
    spectral_energy_identity_residual,
    spectral_project,
)
from .stepper import (
    FemBackend,
    IdentityCheck,
    SchemeConfig,
    Trajectory,
    energy_identity_residual,
    run_trajectory,
    step,
)
from .stochastic import (
    McStats,
    WienerPath,
    coarsen,
    mc_accumulate,
    sample_path,
    total_displacement,
)

__version__ = VERSION

__all__ = [
    "ConfigError",
    "ContractError",
    "SolverError",
    "StepFailure",
    "ValidationError",
    "ExperimentPlan",
    "StudyResult",
    "fit_loglog",
    "identity_suite",
    "increment_study",
    "moment_study",
    "spatial_rate_study",
    "temporal_rate_study",
    "FemSpace",
    "PeriodicMesh",
    "l2_project",
    "prolongation_matrix",
    "EnergyBreakdown",
    "Sigma",
    "dpsi",
    "energy",
    "f_mixed",
    "initial_datum",
    "make_sigma",
    "monotonicity_gap",
    "monomial_integral",
    "simplex_rule",
    "vertex_rule",
    "VERSION",
    "config_hash",
    "json17",
    "write_csv",
    "write_json",
    "SpectralBackend",
    "SpectralSpace",
    "evaluate_on_mesh",
    "spectral_energy",
    "spectral_energy_identity_residual",
    "spectral_project",
    "FemBackend",
    "IdentityCheck",
    "SchemeConfig",
    "Trajectory",
    "energy_identity_residual",
    "run_trajectory",
    "step",
    "McStats",
    "WienerPath",
    "coarsen",
    "mc_accumulate",
    "sample_path",
    "total_displacement",
]
