"""Witness construction: sweep plans, diagonal choices, target solving."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from utpoly.analysis import band_sets, coeff_poly, leading_tuples
from utpoly.cpoly import CPolynomial, diag_var, entry_var, out_var
from utpoly.errors import (BandViolation, BudgetExhausted,
                           DegenerateCoefficient, IncompatibleAssignment,
                           NoRootInField, OrderMismatch, VariableOutOfRange,
                           ZeroInput)
from utpoly.fields import FieldDescriptor, Fp
from utpoly.freealg import NcPolynomial, commutator
from utpoly.solver import (PartialAssignment, SolveOptions, band_coordinates,
                           build_sweep_plan_rn, find_diagonals, hit_open_set,
                           solve_diagonal_r0, solve_target, verify)
from utpoly.triangular import FieldRing, UTMatrix, evaluate

Q = FieldDescriptor.parse("Q")
F5 = FieldDescriptor.parse("Fp:5")
C = FieldDescriptor.parse("C")


def X(i, m):
    return NcPolynomial.variable(Q, m, i)


def comm_product(K):
    m = 2 * K
    out = None
    for k in range(K):
        c = commutator(X(2 * k + 1, m), X(2 * k + 2, m))
        out = c if out is None else out * c
    return out


def qmat(n, entries):
    return UTMatrix(FieldRing(Q), n, {pos: Fraction(v) for pos, v in entries.items()})


# -- partial assignments -------------------------------------------------------


def test_partial_assignment_merge_and_conflict():
    # overlapping blocks merge when they agree on the overlap
    a = PartialAssignment(Q)
    a.set(diag_var(1, 1), Fraction(2))
    a.set(diag_var(1, 1), Fraction(2))  # same value is fine
    a.set(entry_var(1, 2, 1), Fraction(5))
    with pytest.raises(IncompatibleAssignment):
        a.set(diag_var(1, 1), Fraction(3))
    assert a.values == {diag_var(1, 1): Fraction(2),
                        entry_var(1, 2, 1): Fraction(5)}


# -- sweep plans ----------------------------------------------------------------


def test_plan_order_r1_n3():
    plan = build_sweep_plan_rn(1, 3, (1,))
    assert [(e.s, e.t) for e in plan.entries] == [(1, 2), (2, 3), (1, 3)]
    assert [e.fresh for e in plan.entries] == [
        entry_var(1, 2, 1), entry_var(2, 3, 1), entry_var(1, 3, 1)]
    assert all(e.chain == () for e in plan.entries)


def test_plan_order_r2_n4():
    plan = build_sweep_plan_rn(2, 4, (1, 3))
    assert [(e.s, e.t) for e in plan.entries] == [(1, 3), (2, 4), (1, 4)]
    assert [e.fresh for e in plan.entries] == [
        entry_var(2, 3, 3), entry_var(3, 4, 3), entry_var(2, 4, 3)]
    assert [e.chain for e in plan.entries] == [
        ((1, 2, 1),), ((2, 3, 1),), ((1, 2, 1),)]


def test_plan_rejects_bad_parameters():
    with pytest.raises(OrderMismatch):
        build_sweep_plan_rn(0, 3, ())
    with pytest.raises(OrderMismatch):
        build_sweep_plan_rn(3, 3, (1, 1, 1))
    with pytest.raises(OrderMismatch):
        build_sweep_plan_rn(1, 3, (1, 2))  # wrong lead length


def test_plan_invariants_externally_recomputed():
    """Recompute the three schedule facts from scratch for a grid of (r,n):
    fresh positions are first seen at their own entry and never reused, and
    the overlap with earlier supports contains (s,s+1) whenever r+t' >= 2
    (for r=1 on the base band the supports are disjoint singletons)."""
    for n in range(2, 9):
        for r in range(1, n):
            lead = tuple(1 for _ in range(r))
            plan = build_sweep_plan_rn(r, n, lead)
            seen = set()
            fresh_positions = set()
            for e in plan.entries:
                support = band_sets(e.s, e.t, r).arc_support
                fresh_pos = (e.fresh[1], e.fresh[2])
                assert fresh_pos == (r + e.s - 1, e.t)
                assert fresh_pos in support and fresh_pos not in seen
                assert fresh_pos not in fresh_positions
                fresh_positions.add(fresh_pos)
                if seen:
                    if r + e.band >= 2:
                        assert (e.s, e.s + 1) in (support & seen)
                    else:
                        assert not (support & seen)
                assert e.support_new == frozenset(support - seen)
                assert e.support_old == frozenset(support & seen)
                seen |= support
            # every band position is targeted exactly once, each through
            # its own fresh variable
            targets = [(e.s, e.t) for e in plan.entries]
            assert sorted(targets) == sorted(band_coordinates(n, r))
            assert len(fresh_positions) == len(plan.entries)


# -- diagonal choices -----------------------------------------------------------


def test_find_diagonals_satisfies_all_subsets():
    p = comm_product(1)
    lead = (1,)
    rng = random.Random(40)
    n = 4
    diags = find_diagonals(p, lead, n, rng)
    q = coeff_poly(p, lead)
    r = len(lead)
    for subset in combinations(range(n), r + 1):
        assign = {}
        for l, row in enumerate(subset, start=1):
            for i in range(1, p.nvars + 1):
                assign[diag_var(l, i)] = diags[row][i - 1]
        assert q.eval_full(assign) != 0


def test_find_diagonals_rejects_zero_coefficient():
    p = comm_product(1)
    with pytest.raises(ZeroInput):
        find_diagonals(p + NcPolynomial.zero(Q, 3), (3,), 3, random.Random(0))


def test_find_diagonals_needs_enough_rows():
    with pytest.raises(OrderMismatch):
        find_diagonals(comm_product(1), (1,), 1, random.Random(0))


def test_find_diagonals_budget_exhausts_over_tiny_field():
    """Over F_2 a strict inequality on two rows of distinct diagonals is
    satisfiable, but three rows pairwise distinct in one coordinate are not:
    the sampler must report the budget honestly instead of looping."""
    F2 = FieldDescriptor.parse("Fp:2")
    p = NcPolynomial.parse("x1*x2 - x2*x1", F2)
    with pytest.raises(BudgetExhausted):
        find_diagonals(p, (1,), 3, random.Random(0), budget=50)


# -- solve_target ---------------------------------------------------------------


def test_solve_commutator_simple_target():
    p = comm_product(1)
    target = qmat(2, {(1, 2): 5})
    res = solve_target(p, 2, target)
    assert res.status == "exact" and res.residual == 0.0
    assert evaluate(p, res.matrices).eq(target)
    assert res.report["target_met"] and res.report["dual_evaluation_agrees"]


def test_solve_commutator_n3_with_zero_entry():
    p = comm_product(1)
    target = qmat(3, {(1, 2): 2, (2, 3): 0, (1, 3): Fraction(-7, 3)})
    res = solve_target(p, 3, target)
    assert res.status == "exact"
    assert evaluate(p, res.matrices).eq(target)


def test_solve_zero_target_inside_band():
    p = comm_product(1)
    res = solve_target(p, 3, UTMatrix.zeros(FieldRing(Q), 3))
    assert res.status == "exact"
    assert evaluate(p, res.matrices).band_level() >= 2


def test_solve_order2_full_band_target():
    p = comm_product(2)
    entries = {(1, 3): 1, (1, 4): 2, (1, 5): 3, (2, 4): -1, (2, 5): 4, (3, 5): Fraction(1, 2)}
    target = qmat(5, {pos: v for pos, v in entries.items()})
    res = solve_target(p, 5, target)
    assert res.status == "exact"
    assert evaluate(p, res.matrices).eq(target)


def test_solve_band_violation():
    p = comm_product(1)
    with pytest.raises(BandViolation):
        solve_target(p, 2, qmat(2, {(1, 1): 1}))
    p2 = comm_product(2)
    with pytest.raises(BandViolation):
        solve_target(p2, 4, qmat(4, {(1, 2): 1}))  # k-j=1 <= r-1


def test_solve_wrong_size_target():
    with pytest.raises(BandViolation):
        solve_target(comm_product(1), 3, qmat(2, {(1, 2): 1}))


def test_solve_order_zero_redirected():
    with pytest.raises(OrderMismatch):
        solve_target(NcPolynomial.parse("x1", Q), 2, qmat(2, {(1, 2): 1}))


def test_solve_order_at_least_n_zero_image():
    p = comm_product(2)
    res = solve_target(p, 2, UTMatrix.zeros(FieldRing(Q), 2))
    assert res.status == "exact"
    assert all(not a.entries for a in res.matrices)
    with pytest.raises(BandViolation):
        solve_target(p, 2, qmat(2, {(1, 2): 1}))


def test_solve_deterministic_given_seed():
    p = comm_product(1)
    target = qmat(3, {(1, 2): 1, (1, 3): 2})
    a = solve_target(p, 3, target, SolveOptions(seed=7))
    b = solve_target(p, 3, target, SolveOptions(seed=7))
    assert all(x.eq(y) for x, y in zip(a.matrices, b.matrices))


def test_solve_prime_field_target():
    F101 = FieldDescriptor.parse("Fp:101")
    p = NcPolynomial.parse("x1*x2 - x2*x1", F101)
    target = UTMatrix(FieldRing(F101), 3,
                      {(1, 2): Fp(17, 101), (2, 3): Fp(99, 101), (1, 3): Fp(3, 101)})
    res = solve_target(p, 3, target)
    assert res.status == "exact"
    assert evaluate(p, res.matrices).eq(target)


def test_entry_polynomials_affine_in_fresh_variable():
    """With diagonals and all earlier positions fixed, each target entry is
    an affine function of its designated fresh variable (degree <= 1)."""
    from utpoly.triangular import generic_evaluate
    p = comm_product(1)
    n = 3
    plan = build_sweep_plan_rn(1, n, leading_tuples(p, 1)[0])
    rng = random.Random(42)
    diags = find_diagonals(p, plan.lead, n, rng)
    generic = generic_evaluate(p, n)
    values = {}
    for j in range(1, n + 1):
        for i in range(1, p.nvars + 1):
            values[diag_var(j, i)] = diags[j - 1][i - 1]
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            for i in range(1, p.nvars + 1):
                values[entry_var(j, k, i)] = Q.sample(rng)
    for e in plan.entries:
        g = generic.entry(e.s, e.t)
        partial = {key: v for key, v in values.items() if key != e.fresh}
        restricted = g.eval_partial(partial)
        assert restricted.degree_in(e.fresh) <= 1
        assert restricted.degree() <= 1


# -- order zero -----------------------------------------------------------------


def test_solve_r0_square_rational():
    p = NcPolynomial.parse("x1^2", Q)
    target = qmat(2, {(1, 1): 4, (2, 2): 9, (1, 2): 5})
    res = solve_diagonal_r0(p, 2, target)
    assert res.status == "exact"
    assert evaluate(p, res.matrices).eq(target)


def test_solve_r0_mixed_polynomial():
    p = NcPolynomial.parse("x1*x2 + x2*x1 + x1", Q)
    target = qmat(3, {(1, 1): 3, (2, 2): -1, (3, 3): 5, (1, 2): 2, (1, 3): -4})
    res = solve_diagonal_r0(p, 3, target)
    assert res.status == "exact"
    assert evaluate(p, res.matrices).eq(target)


def test_solve_r0_complex_residual():
    p = NcPolynomial.parse("x1^2", C)
    target = UTMatrix(FieldRing(C), 2,
                      {(1, 1): 2 + 0j, (2, 2): 3 + 1j, (1, 2): -1 + 0.5j})
    res = solve_diagonal_r0(p, 2, target)
    assert res.status == "approx"
    assert res.residual <= 1e-9


def test_solve_r0_no_rational_sqrt():
    p = NcPolynomial.parse("x1^2", Q)
    target = qmat(2, {(1, 1): 2, (2, 2): 9})  # sqrt(2) not rational
    with pytest.raises(NoRootInField):
        solve_diagonal_r0(p, 2, target)


def test_solve_r0_requires_order_zero():
    with pytest.raises(OrderMismatch):
        solve_diagonal_r0(comm_product(1), 2, qmat(2, {(1, 2): 1}))


def test_solve_r0_degenerate_over_tiny_field():
    """x1^2 cannot reach E12 in T_2(F_5): every square has (1,2) entry
    a(b+c) with bc the diagonal squares; diagonal zero forces entry zero.
    The solver must fail honestly (degenerate slope after the diagonals)."""
    p = NcPolynomial.parse("x1^2", F5)
    target = UTMatrix(FieldRing(F5), 2, {(1, 2): Fp(1, 5)})
    with pytest.raises((DegenerateCoefficient, NoRootInField)):
        solve_diagonal_r0(p, 2, target, SolveOptions(retries=8))


# -- open sets ------------------------------------------------------------------


def test_band_coordinates():
    assert band_coordinates(3, 1) == [(1, 2), (1, 3), (2, 3)]
    assert band_coordinates(5, 2) == [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)]


def test_hit_open_set_coordinate_polynomial():
    p = comm_product(1)
    f = CPolynomial.parse("y[1,3]", Q, kinds="y")
    res = hit_open_set(p, 3, f)
    out = evaluate(p, res.matrices)
    assert out.entry(1, 3) != 0
    assert res.report["open_set_met"]


def test_hit_open_set_hypersurface():
    p = comm_product(1)
    # avoid the codimension-1 set y12*y23 = 1
    f = CPolynomial.parse("y[1,2]*y[2,3] - 1", Q, kinds="y")
    res = hit_open_set(p, 3, f)
    out = evaluate(p, res.matrices)
    assert out.entry(1, 2) * out.entry(2, 3) != 1
    assert res.report["open_set_met"]


def test_hit_open_set_order2():
    p = comm_product(2)
    f = CPolynomial.parse("y[1,3]^2 - y[2,4]", Q, kinds="y")
    res = hit_open_set(p, 4, f)
    out = evaluate(p, res.matrices)
    assert out.entry(1, 3) ** 2 != out.entry(2, 4)


def test_hit_open_set_rejects_bad_inputs():
    p = comm_product(1)
    with pytest.raises(ZeroInput):
        hit_open_set(p, 3, CPolynomial.zero(Q))
    with pytest.raises(VariableOutOfRange):
        hit_open_set(p, 3, CPolynomial.parse("y[1,1]", Q, kinds="y"))
    with pytest.raises(OrderMismatch):
        hit_open_set(NcPolynomial.parse("x1", Q), 3,
                     CPolynomial.parse("y[1,2]", Q, kinds="y"))


# -- verify ---------------------------------------------------------------------


def test_verify_good_and_corrupted_witness():
    p = comm_product(1)
    target = qmat(2, {(1, 2): 5})
    res = solve_target(p, 2, target)
    rep = verify(p, res.matrices, target=target)
    assert rep["target_met"] and rep["target_residual"] == 0.0
    # corrupt the target: report says no, never raises
    rep_bad = verify(p, res.matrices, target=qmat(2, {(1, 2): 6}))
    assert not rep_bad["target_met"]
    assert rep_bad["target_residual"] is None
    assert rep_bad["dual_evaluation_agrees"]


def test_verify_open_set_report():
    p = comm_product(1)
    f = CPolynomial.parse("y[1,2]", Q, kinds="y")
    res = hit_open_set(p, 2, f)
    rep = verify(p, res.matrices, f=f)
    assert rep["open_set_met"]
    assert "open_set_value" in rep
