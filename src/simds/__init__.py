"""3x3 semi-involutory MDS matrices over small finite fields.

A matrix A is semi-involutory when A^{-1} = D1 A D2 for non-singular
diagonal D1, D2.  This package provides exact GF(2^m) and GF(p)
arithmetic, matrix property checkers (MDS, involutory, semi-involutory,
reducible), an explicit 8-parameter construction of all 3x3
semi-involutory MDS matrices over GF(2^m), and exhaustive censuses that
verify the closed-form counts at desk scale.
"""

from .census import (CensusReport, EnumerationStats, SweepResult,
                     brute_force_S, distinct_diag_inner_count,
                     enumeration_stats, exhaustive_matrix_census,
                     formula_count, run_census, sweep_parameter_space,
                     SET_NAMES)
from .construct import (SiParams, SumConditions, build_matrix,
                        curupira_is_mds, curupira_matrix, extract_xy,
                        minor_formulas, predicted_invariants, sum_conditions)
from .errors import BudgetError, InternalMismatchError
from .field import GF, validate_modulus
from .matrix import Diagonal, Matrix
from .si import (SiVerdict, associated_diagonals, canonical_witness,
                 si_check_3x3, si_oracle)

__all__ = [
    "GF", "validate_modulus", "Matrix", "Diagonal",
    "SiVerdict", "si_oracle", "si_check_3x3",
    "associated_diagonals", "canonical_witness",
    "SiParams", "SumConditions", "build_matrix", "sum_conditions",
    "predicted_invariants", "minor_formulas", "extract_xy",
    "curupira_matrix", "curupira_is_mds",
    "formula_count", "brute_force_S",
    "enumeration_stats", "exhaustive_matrix_census", "run_census",
    "sweep_parameter_space", "distinct_diag_inner_count",
    "CensusReport", "EnumerationStats", "SweepResult", "SET_NAMES",
    "BudgetError", "InternalMismatchError",
]

__version__ = "0.1.0"
