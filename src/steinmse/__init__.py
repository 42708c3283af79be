"""Shrinkage estimation of a multivariate normal mean, with honest
precision estimates: nonnegative and positive(-definite) estimates of the
estimator's MSE and MSE matrix, confidence ellipsoids built from them, and
reproducible Monte Carlo drivers for risk and coverage experiments."""

from .confidence import (ConfidenceResult, ConfidenceSpec, ConfidenceVariant,
                         build_confidence_set, ellipsoid_volume, quad_form_inv)
from .distributions import RngStream, f_quantile
from .experiments import (CoverageTable, CsvTable, ExperimentConfig, RiskTable,
                          reproduce_tables, run_coverage_curve, run_matrix_risk_curve,
                          run_mse_risk_curve, write_plot_script, write_tables)
from .matrix_improved import (BetaConstants, MatrixConstants, MatrixEstimatorKind,
                              estimate_mse_matrix, matrix_constants, matrix_eigen_parts,
                              positive_definite_certified)
from .mse_improved import (MseEstimatorKind, ShrinkageConstants, estimate_mse, estimate_mse_at,
                           psi1_positive_certified, shrinkage_constants)
from .shrinkage import (FamilyKind, Observation, ProblemDims, ShrinkageFamily,
                        ShrunkToOriginWarning, apply_estimator, canonicalize_regression,
                        family_from_name, shrink_factors, true_mse_matrix, true_risk)
from .umvue import AxialMatrix, umvue_mse, umvue_mse_matrix

__version__ = "0.1.0"

__all__ = [
    "AxialMatrix", "BetaConstants", "ConfidenceResult", "ConfidenceSpec", "ConfidenceVariant",
    "CoverageTable", "CsvTable", "ExperimentConfig", "FamilyKind", "MatrixConstants",
    "MatrixEstimatorKind", "MseEstimatorKind", "Observation", "ProblemDims", "RiskTable",
    "RngStream", "ShrinkageConstants", "ShrinkageFamily", "ShrunkToOriginWarning",
    "apply_estimator", "build_confidence_set", "canonicalize_regression", "ellipsoid_volume",
    "estimate_mse", "estimate_mse_at", "estimate_mse_matrix", "f_quantile", "family_from_name",
    "matrix_constants", "matrix_eigen_parts", "positive_definite_certified",
    "psi1_positive_certified", "quad_form_inv", "reproduce_tables", "run_coverage_curve",
    "run_matrix_risk_curve", "run_mse_risk_curve", "shrink_factors", "shrinkage_constants",
    "true_mse_matrix", "true_risk", "umvue_mse", "umvue_mse_matrix", "write_plot_script",
    "write_tables",
]
