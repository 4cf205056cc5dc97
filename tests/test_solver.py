"""Witness construction: sweep plans, diagonal choices, target solving."""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

import utpoly.analysis
import utpoly.solver
import utpoly.triangular
from nc_terms import bracket, times
from plan_reference import band_sets
from utpoly.analysis import coeff_poly, exact_order, leading_tuples
from utpoly.cpoly import CPolynomial, diag_var, entry_var, out_var
from utpoly.errors import (BandViolation, BudgetExhausted,
                           DegenerateCoefficient, FieldMismatch,
                           InternalInconsistency, NoRootInField,
                           OrderMismatch, VariableOutOfRange, ZeroInput)
from utpoly.fields import FieldDescriptor
from utpoly.freealg import NcPolynomial
from utpoly.solver import (SolveOptions, _affine_entry, _affine_parts,
                           _entries_positive, _entries_r0, band_coordinates,
                           build_sweep_plan_rn, find_diagonals, hit_open_set,
                           solve_diagonal_r0, solve_target, verify)
from utpoly.triangular import (UTMatrix, evaluate,
                               generic_evaluate, live_slots, row_values)

Q = FieldDescriptor.parse("Q")
F5 = FieldDescriptor.parse("Fp:5")
C = FieldDescriptor.parse("C")


def comm_product(K):
    """[x1,x2][x3,x4]...[x_{2K-1},x_{2K}]"""
    return NcPolynomial.parse("*".join(
        f"(x{2 * k + 1}*x{2 * k + 2}-x{2 * k + 2}*x{2 * k + 1})" for k in range(K)), Q)


def qmat(n, entries):
    return UTMatrix(Q, n, {pos: Fraction(v) for pos, v in entries.items()})


# -- sweep plans ----------------------------------------------------------------


def test_plan_order_r1_n3():
    assert build_sweep_plan_rn(1, 3, (1,)) == [
        (1, 2, entry_var(1, 2, 1)), (2, 3, entry_var(2, 3, 1)),
        (1, 3, entry_var(1, 3, 1))]


def test_plan_order_r2_n4():
    assert build_sweep_plan_rn(2, 4, (1, 3)) == [
        (1, 3, entry_var(2, 3, 3)), (2, 4, entry_var(3, 4, 3)),
        (1, 4, entry_var(2, 4, 3))]


def test_plan_rejects_bad_parameters():
    with pytest.raises(OrderMismatch):
        build_sweep_plan_rn(0, 3, ())
    with pytest.raises(OrderMismatch):
        build_sweep_plan_rn(3, 3, (1, 1, 1))
    with pytest.raises(OrderMismatch):
        build_sweep_plan_rn(1, 3, (1, 2))  # wrong lead length


def test_plan_invariants_externally_recomputed():
    """Recompute the three schedule facts from scratch for all 276 pairs
    1 <= r < n <= 24, the sizes the sweep is pinned and timed at
    included: fresh positions are first seen at their own entry and never
    reused, and the overlap with earlier supports contains (s,s+1)
    whenever r+t' >= 2 (for r=1 on the base band the supports are
    disjoint singletons).  build_sweep_plan_rn checks none of them."""
    pairs = 0
    for n in range(2, 25):
        for r in range(1, n):
            lead = tuple(1 for _ in range(r))
            plan = build_sweep_plan_rn(r, n, lead)
            seen = set()
            fresh_positions = set()
            for s, t, fresh in plan:
                support = band_sets(s, t, r)
                fresh_pos = (fresh[1], fresh[2])
                assert fresh_pos == (r + s - 1, t)
                assert fresh_pos in support and fresh_pos not in seen
                assert fresh_pos not in fresh_positions
                fresh_positions.add(fresh_pos)
                if seen:
                    if t - s >= 2:
                        assert (s, s + 1) in (support & seen)
                    else:
                        assert not (support & seen)
                seen |= support
            # every band position is targeted exactly once, each through
            # its own fresh variable
            targets = [(s, t) for s, t, _ in plan]
            assert sorted(targets) == sorted(band_coordinates(n, r))
            assert len(fresh_positions) == len(plan)
            pairs += 1
    assert pairs == 276


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


def slope_paths(p, r, s, t, star):
    """The (path, slot tuple) pairs of the terms of entry (s, t) that
    hold the fresh variable on arc (r+s-1, t) at slot star, recomputed
    from the live-slot index as structured_entry enumerates them."""
    fresh_arc = (r + s - 1, t)
    out = set()
    for k in range(1, t - s + 1):
        for slots in live_slots(p, k):
            for interior in combinations(range(s + 1, t), k - 1):
                path = (s,) + interior + (t,)
                arcs = list(zip(path, path[1:]))
                if fresh_arc in arcs and slots[arcs.index(fresh_arc)] == star:
                    out.add((path, slots))
    return out


_P3 = "(x1*x2-x2*x1)*(x3*x4-x4*x3)*(x5*x6-x6*x5)"


@pytest.mark.parametrize("text", ["x1*x2-x2*x1", "x1*x2*x3-x3*x2*x1",
                                  "(x1*x2-x2*x1)*(x1*x2-x2*x1)",
                                  "(x1*x2-x2*x1)*(x1*x3-x3*x1)", _P3])
def test_each_slope_reads_only_its_row_set(text, monkeypatch):
    """The fact behind find_diagonals' row sets: every term of a plan
    entry (s, t) that holds its fresh variable runs along s, s+1, ...,
    r+s-1, t, with a slot tuple ending in lead[-1], and lead itself is
    one of them.  find_diagonals checks exactly those row sets."""
    p = NcPolynomial.parse(text, Q)
    r = exact_order(p)
    for n in range(r + 1, r + 4):
        for lead in leading_tuples(p, r):
            expected = set()
            for s, t, fresh in build_sweep_plan_rn(r, n, lead):
                terms = slope_paths(p, r, s, t, fresh[3])
                rows = tuple(range(s, r + s)) + (t,)
                assert {path for path, _ in terms} == {rows}, (s, t, terms)
                assert all(slots[-1] == lead[-1] for _, slots in terms)
                assert lead in {slots for _, slots in terms}
                expected.add(rows)
            checked = []
            real = utpoly.solver.row_values
            monkeypatch.setattr(utpoly.solver, "row_values",
                                lambda diags, rows: checked.append(rows) or real(diags, rows))
            find_diagonals(p, lead, n, random.Random(n))
            monkeypatch.undo()
            assert len(checked) % len(expected) == 0
            assert set(checked) == expected
            assert len(expected) == (n - r) * (n - r + 1) // 2


def test_find_diagonals_r4_at_n32_within_budget():
    """Q, r = 4: checking all C(32, 5) = 201,376 row subsets took about
    61 s per search; the 378 row sets of the slopes take well under a
    second.  Runtime budget: 1 s, live-slot index included."""
    p = NcPolynomial.parse(f"{_P3}*(x1*x3-x3*x1)", Q)
    assert not p.index          # built inside the budget
    t0 = time.perf_counter()
    r = exact_order(p)
    lead = leading_tuples(p, r)[0]
    diags = find_diagonals(p, lead, 32, random.Random(0))
    elapsed = time.perf_counter() - t0
    assert r == 4 and len(diags) == 32
    q = coeff_poly(p, lead)
    for s in range(1, 29):
        for t in range(s + 4, 33):
            assert q.eval_full(row_values(diags, tuple(range(s, s + 4)) + (t,))) != 0
    assert elapsed < 1.0, elapsed


def test_find_diagonals_rejects_zero_coefficient():
    p = comm_product(1)
    with pytest.raises(ZeroInput):
        find_diagonals(NcPolynomial(Q, 3, p.terms), (3,), 3, random.Random(0))


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
    res = solve_target(p, 3, UTMatrix(Q, 3, {}))
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


def test_solve_target_serves_order_zero():
    """solve_target handles order 0 itself; solve_diagonal_r0 is the same
    construction restricted to that order."""
    p = NcPolynomial.parse("x1*x2 + x2*x1 + x1", Q)
    target = qmat(3, {(1, 1): 3, (2, 2): -1, (3, 3): 5, (1, 2): 2, (1, 3): -4})
    opt = SolveOptions(seed=5)
    res = solve_target(p, 3, target, opt)
    assert res.to_json() == solve_diagonal_r0(p, 3, target, opt).to_json()
    assert evaluate(p, res.matrices).eq(target)


def test_solve_order_at_least_n_zero_image():
    p = comm_product(2)
    res = solve_target(p, 2, UTMatrix(Q, 2, {}))
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
    target = UTMatrix(F101, 3, {(1, 2): 17, (2, 3): 99, (1, 3): 3})
    res = solve_target(p, 3, target)
    assert res.status == "exact"
    assert evaluate(p, res.matrices).eq(target)


def test_entry_polynomials_affine_in_fresh_variable():
    """With diagonals and all earlier positions fixed, each target entry is
    an affine function of its designated fresh variable (degree <= 1)."""
    from utpoly.triangular import generic_evaluate
    p = comm_product(1)
    n = 3
    lead = leading_tuples(p, 1)[0]
    plan = build_sweep_plan_rn(1, n, lead)
    rng = random.Random(42)
    diags = find_diagonals(p, lead, n, rng)
    generic = generic_evaluate(p, n)
    values = {}
    for j in range(1, n + 1):
        for i in range(1, p.nvars + 1):
            values[diag_var(j, i)] = diags[j - 1][i - 1]
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            for i in range(1, p.nvars + 1):
                values[entry_var(j, k, i)] = Q.sample(rng)
    for s, t, fresh in plan:
        g = generic[s, t]
        partial = {key: v for key, v in values.items() if key != fresh}
        restricted = g.eval_partial(partial)
        assert max((dict(m).get(fresh, 0) for m in restricted.terms),
                   default=0) <= 1
        assert max((sum(e for _, e in m) for m in restricted.terms), default=0) <= 1


def sweep_polys(desc, seed, count=10):
    """Random polynomials of order 0, 1 and 2 in up to three variables:
    random words times up to two commutators of random words."""
    rng = random.Random(seed)

    def word(m, lo=1):
        return tuple(rng.randint(1, m) for _ in range(rng.randint(lo, 2)))

    while count:
        m = rng.randint(2, 3)
        out = NcPolynomial(desc, m, {word(m): desc.from_int(rng.randint(1, 3))
                                     for _ in range(rng.randint(1, 3))})
        for _ in range(rng.randint(0, 2)):
            a = NcPolynomial(desc, m, {word(m): desc.one()})
            b = NcPolynomial(desc, m, {word(m): desc.one()})
            out = times(out, bracket(a, b))
        if not out.is_zero():
            count -= 1
            yield out


@pytest.mark.parametrize("field", ["Q", "Fp:3", "Fp:101"])
def test_structured_affine_parts_match_generic_entry(field):
    """Over exact fields the sweep reads (slope, offset) off the
    live-slot index; at every entry of random sweep plans, r = 0 plans
    included, they equal the generic entry's affine parts."""
    desc = FieldDescriptor.parse(field)
    rng = random.Random(field)
    checked = set()
    for p in sweep_polys(desc, "affine " + field, count=16):
        r = exact_order(p)
        m = p.nvars
        for n in range(r + 1, min(r + 3, 5) + 1):
            generic = generic_evaluate(p, n)
            values = {}
            diags = [tuple(desc.sample(rng) for _ in range(m))
                     for _ in range(n)]
            for j in range(1, n + 1):
                for i in range(1, m + 1):
                    values[diag_var(j, i)] = diags[j - 1][i - 1]
            if r:
                lead = rng.choice(list(live_slots(p, r)))
                entries = _entries_positive(n, m, lead, values, desc, rng, 256)
            else:
                arcs = [(i, coeff_poly(p, (i,))) for (i,) in live_slots(p, 1)]
                entries = _entries_r0(n, diags, arcs, values, desc, rng, 256)
            for s, t, fresh in entries:
                if fresh is None:
                    break
                got = _affine_entry(p, diags, s, t, values, fresh)
                want = _affine_parts(desc, generic, s, t, values, fresh)
                assert got == want, (p.terms, n, s, t)
                checked.add((r, desc.is_zero(got[0])))
                values[fresh] = desc.sample(rng)
    assert {(0, False), (1, False), (2, False)} <= checked


def _three_pass_affine_parts(desc, generic, s, t, values, fresh):
    """The C split as _affine_parts made it in three passes: the degree
    of fresh, its coefficient, and the entry at fresh = 0, each read
    back as a constant polynomial; an entry the map lacks is zero."""
    entry = generic.get((s, t), CPolynomial(desc, {}))
    cur = entry.eval_partial(values)
    zero = entry.field.zero()
    assert max((dict(m).get(fresh, 0) for m in cur.terms), default=0) <= 1
    slope = {}
    for mono, c in cur.terms.items():
        if (fresh, 1) in mono:
            rest = tuple(kv for kv in mono if kv[0] != fresh)
            slope[rest] = slope.get(rest, zero) + c
    slope = CPolynomial(entry.field, slope)
    offset = cur.eval_partial({fresh: zero})
    assert set(slope.terms) <= {()} and set(offset.terms) <= {()}
    return slope.terms.get((), zero), offset.terms.get((), zero)


def _hex(c):
    return c.real.hex(), c.imag.hex()


@pytest.mark.parametrize("field", ["C", "C:0.5", "C:1e-300"])
def test_complex_affine_parts_keep_their_bits(field):
    """_affine_parts reads slope and offset off one partial evaluation;
    they keep every bit of the three-pass split at every fresh variable
    of sweep polynomials, with the diagonals random or all rows equal
    (linear terms cancel) and the other arcs random or half zero
    (constant terms vanish)."""
    desc = FieldDescriptor.parse(field)
    rng = random.Random(field)
    seen = set()
    for p in sweep_polys(desc, "bits " + field, count=8):
        m = p.nvars
        for n in (2, 3, 4):
            generic = generic_evaluate(p, n)
            for tied, sparse in ((False, False), (True, False), (False, True)):
                rows = [tuple(desc.sample(rng) for _ in range(m))
                        for _ in range(n)]
                if tied:
                    rows = rows[:1] * n
                values = {diag_var(j, i): rows[j - 1][i - 1]
                          for j in range(1, n + 1) for i in range(1, m + 1)}
                for j, k in combinations(range(1, n + 1), 2):
                    for i in range(1, m + 1):
                        zero = sparse and rng.random() < 0.5
                        values[entry_var(j, k, i)] = (desc.zero() if zero
                                                      else desc.sample(rng))
                for (s, t), i in product(combinations(range(1, n + 1), 2),
                                         range(1, m + 1)):
                    fresh = entry_var(s, t, i)
                    rest = {key: v for key, v in values.items() if key != fresh}
                    got = _affine_parts(desc, generic, s, t, rest, fresh)
                    want = _three_pass_affine_parts(desc, generic, s, t, rest, fresh)
                    assert list(map(_hex, got)) == list(map(_hex, want)), \
                        (p.terms, n, s, t, fresh)
                    linear = (s, t) in generic and fresh in generic[s, t].variables()
                    seen.add(("cancelled" if linear and got[0] == 0
                              else "slope" if linear else "no fresh",
                              "no constant" if got[1] == 0 else "constant"))
    assert {("cancelled", "constant"), ("slope", "no constant"),
            ("slope", "constant")} <= seen, seen


def test_structured_affine_parts_need_every_other_variable():
    p = comm_product(1)
    n = 3
    diags = [(Fraction(j + 1), Fraction(j + 2)) for j in range(1, n + 1)]
    values = {diag_var(j, i): diags[j - 1][i - 1] for j in range(1, n + 1)
              for i in (1, 2)}
    values[entry_var(1, 2, 1)] = Fraction(1)
    with pytest.raises(InternalInconsistency, match="unassigned"):
        _affine_entry(p, diags, 1, 3, values, entry_var(2, 3, 1))
    with pytest.raises(InternalInconsistency, match="not affine"):
        _affine_parts(Q, generic_evaluate(p, n), 1, 3, values, entry_var(2, 3, 1))


def _forbidden(*args, **kwargs):
    raise AssertionError("generic_evaluate called")


@pytest.mark.parametrize("field", ["Q", "Fp:3", "Fp:101"])
def test_exact_sweep_makes_no_generic_evaluation(field, monkeypatch):
    """Q and F_p solve, hit and verify never evaluate p at the generic
    tuple: they read the order and the sweep's entries off the live-slot
    index (only the order command keeps its generic probe)."""
    desc = FieldDescriptor.parse(field)
    for module in (utpoly.analysis, utpoly.triangular, utpoly.solver):
        monkeypatch.setattr(module, "generic_evaluate", _forbidden)
    for text, n in (("x1^2 + x1*x2", 3), ("x1*x2-x2*x1", 3),
                    ("(x1*x2-x2*x1)*(x3*x4-x4*x3)", 4)):
        p = NcPolynomial.parse(text, desc)
        r = exact_order(p)
        target = UTMatrix(desc, n, {(s, t): desc.from_int(s + 2 * t)
                                    for s in range(1, n + 1)
                                    for t in range(s + r, n + 1)})
        res = solve_target(p, n, target)
        assert evaluate(p, res.matrices).eq(target), text
        assert verify(p, res.matrices, target=target)["target_met"], text
        if r:
            f = CPolynomial.parse(f"y[1,{n}]", desc, kinds="y")
            hit = hit_open_set(p, n, f)
            assert hit.report["open_set_met"], text
            assert verify(p, hit.matrices, f=f)["open_set_met"], text


def test_complex_sweep_keeps_the_generic_entry(monkeypatch):
    """Over C the sweep reads the generic entry, whose float summation
    order the golden corpus pins."""
    calls = []
    real = utpoly.solver.generic_evaluate
    monkeypatch.setattr(utpoly.solver, "generic_evaluate",
                        lambda *a: calls.append(a[1]) or real(*a))
    p = NcPolynomial.parse("x1*x2-x2*x1", C)
    target = UTMatrix(C, 3, {(1, 2): 1.0, (2, 3): 2.0, (1, 3): 0.5})
    res = solve_target(p, 3, target)
    assert res.report["target_met"]
    assert calls == [3]


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
    target = UTMatrix(C, 2, {(1, 1): 2 + 0j, (2, 2): 3 + 1j, (1, 2): -1 + 0.5j})
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
    target = UTMatrix(F5, 2, {(1, 2): F5.from_int(1)})
    with pytest.raises((DegenerateCoefficient, NoRootInField)):
        solve_diagonal_r0(p, 2, target, SolveOptions(retries=8))


def test_degenerate_coefficient_names_the_last_failure(monkeypatch):
    """The first attempt fails at a zero slope and every later one at
    the replay: the error names the replay, not the stale entry."""
    affine_entry, replay = utpoly.solver._affine_entry, utpoly.solver._replay
    calls = []

    def zero_first_slope(*args):
        calls.append(args)
        return (Q.zero(), Q.zero()) if len(calls) == 1 else affine_entry(*args)

    def missed_target(*args):
        achieved, rep = replay(*args)
        return achieved, {**rep, "target_met": False}

    monkeypatch.setattr(utpoly.solver, "_affine_entry", zero_first_slope)
    monkeypatch.setattr(utpoly.solver, "_replay", missed_target)
    target = qmat(3, {(1, 2): 1, (2, 3): 2, (1, 3): 3})
    with pytest.raises(DegenerateCoefficient) as err:
        solve_target(comm_product(1), 3, target, SolveOptions(retries=3))
    assert err.value.entry == ("verify",)
    assert "last failing entry ('verify',)" in str(err.value)
    assert calls[0][2:4] == (1, 2)    # the first attempt's zero slope


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
        hit_open_set(p, 3, CPolynomial(Q, {}))
    with pytest.raises(VariableOutOfRange):
        hit_open_set(p, 3, CPolynomial.parse("y[1,1]", Q, kinds="y"))
    with pytest.raises(OrderMismatch):
        hit_open_set(NcPolynomial.parse("x1", Q), 3,
                     CPolynomial.parse("y[1,2]", Q, kinds="y"))
    with pytest.raises(OrderMismatch, match="r >= n = 2"):
        hit_open_set(comm_product(2), 2,
                     CPolynomial.parse("y[1,2]", Q, kinds="y"))


# -- verify ---------------------------------------------------------------------


def test_other_field_matrices_are_refused_before_any_work(monkeypatch):
    """A witness or target is made of p's field elements: solve_target,
    solve_diagonal_r0 and verify refuse F_5 matrices for a p over Q with
    FieldMismatch before deriving the order or evaluating anything, and
    hit_open_set and verify so refuse an open-set polynomial over another
    field."""
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the field check")

    for name in ("exact_order", "evaluate", "evaluate_structured"):
        monkeypatch.setattr(utpoly.solver, name, no_work)
    p = comm_product(1)
    other = UTMatrix(F5, 2, {(1, 2): F5.from_int(1)})
    with pytest.raises(FieldMismatch):
        solve_target(p, 2, other)
    with pytest.raises(FieldMismatch):
        solve_diagonal_r0(p, 2, other)
    with pytest.raises(FieldMismatch):
        verify(p, [other, other])
    with pytest.raises(FieldMismatch):
        verify(p, [qmat(2, {}), other])
    with pytest.raises(FieldMismatch):
        verify(p, [qmat(2, {}), qmat(2, {})], target=other)
    f5 = CPolynomial.parse("y[1,2]", F5, kinds="y")
    with pytest.raises(FieldMismatch):
        hit_open_set(p, 2, f5)
    with pytest.raises(FieldMismatch):
        verify(p, [qmat(2, {}), qmat(2, {})], f=f5)


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
