"""Shrinkage estimation of a multivariate normal mean, with honest
precision estimates: nonnegative and positive(-definite) estimates of the
estimator's MSE and MSE matrix, confidence ellipsoids built from them, and
reproducible Monte Carlo drivers for risk and coverage experiments."""

from .confidence import (ConfidenceResult, ConfidenceSpec, ConfidenceVariant,
                         build_confidence_set, ellipsoid_volume, quad_form_inv)
from .distributions import RngStream, f_quantile
from .experiments import (CoverageTable, CsvTable, ExperimentConfig, RiskTable,
                          default_confidence_variants, reproduce_tables, run_coverage_curve,
                          run_matrix_risk_curve, run_mse_risk_curve, write_plot_script,
                          write_tables)
from .matrix_improved import (BetaConstants, MatrixConstants, MatrixEstimatorKind, b_of_w,
                              beta_constants, beta_j, estimate_mse_matrix, gamma_xi_eta,
                              matrix_constants, matrix_eigen_parts,
                              positive_definite_certified, solve_w_xi_eta)
from .mse_improved import (MseEstimatorKind, ShrinkageConstants, a_of_w, alpha_pn,
                           estimate_mse, estimate_mse_at, gamma_pn, psi1_positive_certified,
                           shrinkage_constants, solve_w_pn, truncation_band_nonempty)
from .shrinkage import (FamilyKind, Observation, ProblemDims, ShrinkageFamily,
                        ShrunkToOriginWarning, apply_estimator, canonicalize_regression,
                        family_from_name, risk_reduction_integrand, shrink_factors,
                        true_mse_matrix, true_risk)
from .umvue import (AxialMatrix, GFunctions, g_functions, g_transform,
                    positive_part_branch_constants, umvue_mse, umvue_mse_matrix)

__version__ = "0.1.0"

__all__ = [
    "AxialMatrix", "BetaConstants", "ConfidenceResult", "ConfidenceSpec",
    "ConfidenceVariant", "CoverageTable", "CsvTable", "ExperimentConfig", "FamilyKind",
    "GFunctions", "MatrixConstants", "MatrixEstimatorKind", "MseEstimatorKind",
    "Observation", "ProblemDims", "RiskTable", "RngStream", "ShrinkageConstants",
    "ShrinkageFamily", "ShrunkToOriginWarning", "a_of_w", "alpha_pn", "apply_estimator",
    "b_of_w", "beta_constants", "beta_j", "build_confidence_set", "canonicalize_regression",
    "default_confidence_variants", "ellipsoid_volume", "estimate_mse",
    "estimate_mse_at", "estimate_mse_matrix", "f_quantile", "family_from_name",
    "g_functions", "g_transform", "gamma_pn", "gamma_xi_eta", "matrix_constants",
    "matrix_eigen_parts", "positive_definite_certified",
    "positive_part_branch_constants", "psi1_positive_certified", "quad_form_inv",
    "reproduce_tables", "risk_reduction_integrand", "run_coverage_curve",
    "run_matrix_risk_curve", "run_mse_risk_curve", "shrink_factors", "shrinkage_constants",
    "solve_w_pn", "solve_w_xi_eta", "true_mse_matrix", "true_risk",
    "truncation_band_nonempty", "umvue_mse", "umvue_mse_matrix", "write_plot_script",
    "write_tables",
]
