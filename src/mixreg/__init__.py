"""Convex mixed linear regression.

Assigns one coefficient estimate per data point by minimizing the sum of all
pairwise estimate distances subject to each point's measurement equation,
then clusters the estimates and refits one regression per class.  Includes a
closed-form dual certificate that proves exact recovery for well-separated,
balanced instances, generators for the standard synthetic ensembles, and a
phase-diagram experiment runner.
"""

from .certificate import (
    Certificate,
    CertificateVerdict,
    build_certificate,
    verify_certificate,
)
from .cluster import ClusteringResult, RefitResult, kmeans, match_labels, refit_regression
from .dataio import load_csv, preprocess_center_scale, save_csv
from .errors import (
    CertificateUndefinedError,
    DataValidationError,
    DegenerateModelError,
    MixregError,
    NonUniqueSolutionWarning,
    NumericalError,
    UnderdeterminedFitWarning,
)
from .geometry import (
    ConditionReport,
    check_conditions,
    weighted_directions,
)
from .model import (
    Dataset,
    EstimateField,
    MixtureModel,
    candidate_solution,
    feasibility_residual,
    objective,
    recovery_error,
)
from .phase import PhaseConfig, PhaseGrid, run_phase, trial_seed
from .pipeline import FitReport, fit_pipeline
from .solver import (
    SolverOptions,
    SolveTrace,
    WeightMatrix,
    irls_solve,
    smoothed_objective,
    update_weights,
    weighted_ls_step,
)
from .synth import Sim1Config, Sim2Config, gen_sim1, gen_sim2, sample_ball, sample_sphere

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificateVerdict",
    "build_certificate",
    "verify_certificate",
    "ClusteringResult",
    "RefitResult",
    "kmeans",
    "match_labels",
    "refit_regression",
    "load_csv",
    "save_csv",
    "preprocess_center_scale",
    "MixregError",
    "DataValidationError",
    "DegenerateModelError",
    "CertificateUndefinedError",
    "NumericalError",
    "NonUniqueSolutionWarning",
    "UnderdeterminedFitWarning",
    "ConditionReport",
    "check_conditions",
    "weighted_directions",
    "Dataset",
    "EstimateField",
    "MixtureModel",
    "candidate_solution",
    "feasibility_residual",
    "objective",
    "recovery_error",
    "PhaseConfig",
    "PhaseGrid",
    "run_phase",
    "trial_seed",
    "FitReport",
    "fit_pipeline",
    "SolverOptions",
    "SolveTrace",
    "WeightMatrix",
    "irls_solve",
    "smoothed_objective",
    "update_weights",
    "weighted_ls_step",
    "Sim1Config",
    "Sim2Config",
    "gen_sim1",
    "gen_sim2",
    "sample_ball",
    "sample_sphere",
]
