"""Toeplitz determinants with two merging root/jump singularities.

Exact finite-n determinants, the associated Painleve V transcendent, and
every closed-form asymptotic predictor, with verification suites that
cross-check them against each other at desk scale.
"""

from .asympt import (
    AsymptoticPrediction,
    beta_one_ratio,
    diff_identity_rhs,
    dyson_constant,
    e_constant,
    fh1_log,
    fh2_log,
    fh2_odd_log,
    fk_constants,
    normalize_beta,
    transition_log,
)
from .errors import (
    BarnesGZeroError,
    BranchAmbiguityError,
    DegenerateDenominatorError,
    FhmergeError,
    GammaPoleError,
    NondegeneracyError,
    NumericalError,
    PoleDetectedError,
    QuadratureError,
    SingularMatrixError,
    ValidationError,
)
from .painleve import (
    RTrajectory,
    SigmaTrajectory,
    degenerate_r,
    degenerate_sigma,
    integral_identity_check,
    integrate_sigma,
    r_trajectory,
    sigma_large_asym,
    tau0,
    theta_params,
)
from .specfun import log_barnes_g, log_gamma
from .symbol import FHParams, FourierTable, fourier_coeffs
from .toeplitz import LogDeterminant, OrthoPolyData, det_path, heine_det, log_det, orth_poly

__all__ = [
    "AsymptoticPrediction",
    "FHParams",
    "FourierTable",
    "LogDeterminant",
    "OrthoPolyData",
    "RTrajectory",
    "SigmaTrajectory",
    "beta_one_ratio",
    "degenerate_r",
    "degenerate_sigma",
    "det_path",
    "diff_identity_rhs",
    "dyson_constant",
    "e_constant",
    "fh1_log",
    "fh2_log",
    "fh2_odd_log",
    "fk_constants",
    "fourier_coeffs",
    "heine_det",
    "integral_identity_check",
    "integrate_sigma",
    "log_barnes_g",
    "log_det",
    "log_gamma",
    "normalize_beta",
    "orth_poly",
    "r_trajectory",
    "sigma_large_asym",
    "tau0",
    "theta_params",
    "transition_log",
    "FhmergeError",
    "ValidationError",
    "NumericalError",
    "GammaPoleError",
    "BarnesGZeroError",
    "NondegeneracyError",
    "QuadratureError",
    "SingularMatrixError",
    "BranchAmbiguityError",
    "PoleDetectedError",
    "DegenerateDenominatorError",
]
