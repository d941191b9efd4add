"""dil: defect Dirac operator toolkit.

Builds the first-order defect operator of a complex-surface vortex model
symbolically, discretizes it on a square lattice, and verifies its
supersymmetric quantum mechanics structure end to end: exact operator
algebra, the N=2 quartet relations, localized zero-mode counting, the
Witten index, and its invariance under compact odd perturbations, with an
independent topological winding cross-check.
"""

from __future__ import annotations

__version__ = "1.0.0"

from .errors import (ConfigError, ContourError, DilError, FitWindowError,  # noqa: E402
                     ModelError, ParityError, ShapeError, SolverError,
                     ZeroFieldError)
from .opcalc import (BlockOperator, ComplexRational, GaussianAnsatz,  # noqa: E402
                     OperatorExpression, OperatorTerm, adjoint,
                     block_gaussian_apply, compose, crat, gaussian,
                     gaussian_apply, gaussian_inner, monomial, normal_order,
                     parse_expression, render_expression)
from .lattice import (Field, GridSpec, discretize, evaluate,  # noqa: E402
                      field_to_csv, localization_fraction, sample)
from .susy import (DefectOperatorSet, GradedVector, ModelSpec,  # noqa: E402
                   Parity, SusyQuartet, build_defect_operator,
                   build_operator_set, build_susy_quartet,
                   compact_perturbation, graded_apply,
                   operator_set_from_block, parity_classify,
                   physical_state_embed, project)
from .spectral import (EigenReport, IndexParams, PairingReport,  # noqa: E402
                       WindingMismatchWarning, WittenIndexReport, low_spectrum,
                       mode_census, pairing_check, winding_number,
                       witten_index)
from .analysis import (AlgebraReport, ConvergenceReport, DecayFit,  # noqa: E402
                       SweepRow, algebra_check, convergence_study,
                       fit_gaussian_decay, perturbation_sweep)

__all__ = [
    "__version__",
    # errors
    "DilError", "ShapeError", "ModelError", "ZeroFieldError", "ParityError",
    "ContourError", "FitWindowError", "ConfigError", "SolverError",
    # opcalc
    "ComplexRational", "crat", "OperatorTerm", "OperatorExpression",
    "BlockOperator", "GaussianAnsatz", "monomial", "normal_order", "compose",
    "adjoint", "gaussian", "gaussian_apply", "block_gaussian_apply",
    "gaussian_inner", "render_expression", "parse_expression",
    # lattice
    "GridSpec", "Field", "discretize", "sample", "evaluate", "localization_fraction",
    "field_to_csv",
    # susy
    "ModelSpec", "DefectOperatorSet", "SusyQuartet", "GradedVector",
    "Parity", "build_defect_operator", "build_operator_set",
    "operator_set_from_block", "compact_perturbation", "build_susy_quartet",
    "parity_classify", "project", "graded_apply", "physical_state_embed",
    # spectral
    "EigenReport", "WittenIndexReport", "IndexParams", "PairingReport",
    "WindingMismatchWarning", "low_spectrum", "mode_census", "witten_index",
    "winding_number", "pairing_check",
    # analysis
    "DecayFit", "SweepRow", "ConvergenceReport", "AlgebraReport",
    "fit_gaussian_decay", "perturbation_sweep", "convergence_study",
    "algebra_check",
]
