"""Polynomial evaluation on upper triangular matrix algebras: the order
invariant, image classification, and constructive density witnesses."""

from .analysis import (BandIndexSet, Classification, OrderReport, band_sets,
                       classify, coeff_poly, exact_order, is_identity,
                       leading_tuples, order)
from .cpoly import CPolynomial, diag_var, entry_var, out_var, render_var
from .errors import UtpolyError
from .fields import FieldDescriptor, Fp, solve_univariate
from .freealg import NcPolynomial, commutator
from .solver import (PartialAssignment, SolveOptions, SweepPlan, WitnessResult,
                     build_sweep_plan_rn, find_diagonals, hit_open_set,
                     solve_diagonal_r0, solve_target, verify)
from .triangular import (FieldRing, PolyRing, UTMatrix, evaluate,
                         evaluate_structured, generic_evaluate, generic_tuple,
                         word_product, word_product_paths)

__version__ = "0.1.0"
