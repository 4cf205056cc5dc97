"""Polynomial evaluation on upper triangular matrix algebras: the order
invariant, image classification, and constructive density witnesses."""

from .analysis import (Classification, OrderReport, classify, coeff_poly,
                       exact_order, leading_tuples, order)
from .cpoly import CPolynomial, diag_var, entry_var, out_var, render_var
from .errors import UtpolyError
from .fields import FieldDescriptor, solve_univariate
from .freealg import NcPolynomial
from .solver import (SolveOptions, WitnessResult, build_sweep_plan_rn,
                     find_diagonals, hit_open_set, solve_diagonal_r0,
                     solve_target, verify)
from .triangular import (FieldRing, UTMatrix, evaluate, evaluate_structured,
                         generic_evaluate)

__version__ = "0.1.0"
