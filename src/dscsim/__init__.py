"""dscsim: chemical-sensor network simulation with dynamic collaboration.

An agent-based simulator of sleeping sensors woken epidemically by
neighbors that detect a pollutant, together with the mean-field theory
that predicts thresholds, steady states, scaling laws and activation
fronts, and the analysis tools that calibrate one against the other.
"""

__version__ = "0.1.0"

from .analysis import (
    FitResult,
    alpha_from_sim,
    calibrate_g,
    extract_plateau,
    fit_power_law,
    ks_distance,
)
from .environment import (
    ConcentrationModel,
    atom_weight,
    cdf,
    pdf_continuous,
    quantile,
    time_series,
)
from .meanfield import (
    InfoGainReport,
    PdeTrajectory,
    Trajectory,
    alpha_theory,
    front_positions,
    front_speed,
    info_gain_conditions,
    integrate_pde,
    integrate_sis,
    logistic_solution,
    r0,
    relaxation_time,
    steady_state,
    synchronization_check,
)
from .netsim import (
    EnsembleResult,
    NetworkConfig,
    SimRecord,
    Simulation,
    active_fraction,
    ensemble_run,
    neighbor_csr,
    place_sensors,
    run,
)
from .sensor import SensorSpec, detection_probability, optimal_threshold, read

__all__ = [
    "ConcentrationModel",
    "EnsembleResult",
    "FitResult",
    "InfoGainReport",
    "NetworkConfig",
    "PdeTrajectory",
    "SensorSpec",
    "SimRecord",
    "Simulation",
    "Trajectory",
    "__version__",
    "active_fraction",
    "alpha_from_sim",
    "alpha_theory",
    "atom_weight",
    "calibrate_g",
    "cdf",
    "detection_probability",
    "ensemble_run",
    "extract_plateau",
    "fit_power_law",
    "front_positions",
    "front_speed",
    "info_gain_conditions",
    "integrate_pde",
    "integrate_sis",
    "ks_distance",
    "logistic_solution",
    "neighbor_csr",
    "optimal_threshold",
    "pdf_continuous",
    "place_sensors",
    "quantile",
    "r0",
    "read",
    "relaxation_time",
    "run",
    "steady_state",
    "synchronization_check",
    "time_series",
]
