"""Numerical laboratory for planar Morrey extremals.

The package evaluates the separable singular p-harmonic cone solutions
exactly, computes the discrete Morrey extremal on the upper half plane by
convex energy minimization with a pinned unit value, and analyzes the
result: radial decay exponent, gradient decay, barrier comparison against
the cone supersolution, and a lower bound for the optimal constant of the
underlying inequality.
"""

from .aronsson import (AngularProfile, ConeParams, angular_profile,
                       aperture_L, beta_p, evaluate_w, invert_phi,
                       kappa_of_L, pharmonic_residual)
from .grid import (EnergyParams, GridSpec, LogPolarGrid, ScalarField,
                   build_grid, cell_gradient_sq, energy, energy_gradient,
                   energy_hessian, field_to_csv, interpolate, load_field,
                   save_field)
from .solver import (FullPlaneField, SolveResult, SolverConfig, StageInfo,
                     load_checkpoint, mirror_to_fullplane, save_checkpoint,
                     solve_extremal)
from .analysis import (BarrierReport, DecayFit, DecayProfile, HolderResult,
                       MorreyEstimate, ParameterError, barrier_check,
                       decay_profile, estimate_morrey_constant, fit_exponent,
                       gradient_profile, holder_seminorm, lp_gradient_norm)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # cone solutions
    "ConeParams", "AngularProfile", "beta_p", "aperture_L", "kappa_of_L",
    "angular_profile", "evaluate_w", "invert_phi", "pharmonic_residual",
    # grid and energy
    "GridSpec", "LogPolarGrid", "ScalarField", "EnergyParams", "build_grid",
    "energy", "energy_gradient", "energy_hessian", "cell_gradient_sq",
    "interpolate", "save_field", "load_field", "field_to_csv",
    # solver
    "SolverConfig", "StageInfo", "SolveResult", "solve_extremal",
    "FullPlaneField", "mirror_to_fullplane", "save_checkpoint",
    "load_checkpoint",
    # analysis
    "DecayProfile", "DecayFit", "HolderResult", "MorreyEstimate",
    "BarrierReport", "ParameterError", "decay_profile", "fit_exponent",
    "gradient_profile", "holder_seminorm", "lp_gradient_norm",
    "estimate_morrey_constant", "barrier_check",
]
