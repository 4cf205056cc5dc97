"""Acceptance suite: eight independent criteria, one test (and one
pass/fail line under pytest -v) per criterion.

Each test carries its tolerance and runtime budget inline.  Randomized
criteria use fixed seeds so the suite is reproducible; equality means
field equality (exact over Q and F_p, within stated tolerance over C).
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from nc_terms import plus, times
from plan_reference import band_sets
from utpoly.analysis import classify, exact_order, leading_tuples, order
from utpoly.cli import main as cli_main
from utpoly.cpoly import CPolynomial, out_var
from utpoly.errors import DegenerateCoefficient, NoRootInField
from utpoly.fields import FieldDescriptor
from utpoly.freealg import NcPolynomial
from utpoly.solver import (SolveOptions, band_coordinates,
                           build_sweep_plan_rn, hit_open_set,
                           solve_diagonal_r0, solve_target)
from utpoly.triangular import (UTMatrix, evaluate,
                               evaluate_structured, generic_evaluate)

Q = FieldDescriptor.parse("Q")
C = FieldDescriptor.parse("C")


def variable(field, m, i):
    return NcPolynomial(field, m, {(i,): field.one()})


def comm_product(field, pairs, m):
    """[xa,xb][xc,xd]... over the given (a, b) pairs, in m variables."""
    return NcPolynomial.parse(
        "*".join(f"(x{a}*x{b}-x{b}*x{a})" for a, b in pairs), field, m)


def scaled(p, c):
    """c * p, coefficient by coefficient."""
    return NcPolynomial(p.field, p.nvars, {w: c * v for w, v in p.terms.items()})


def test_criterion_1_dual_evaluation_equivalence():
    """500 random polynomials over F_3 (n <= 3, m <= 2, degree <= 3,
    coefficients in {1,2}, <= 4 terms): the direct and structured
    evaluation routes agree on every tuple, exactly.  Tuple spaces with
    <= 729 points are enumerated exhaustively (every cell except
    (n,m)=(3,2)); larger ones contribute 729 sampled tuples.
    Runtime budget: 60 s."""
    t0 = time.perf_counter()
    F3 = FieldDescriptor.parse("Fp:3")
    rng = random.Random(314159)

    def all_matrices(n):
        positions = [(j, k) for j in range(1, n + 1) for k in range(j, n + 1)]
        vals = [F3.from_int(v) for v in range(3)]
        return [UTMatrix(F3, n, dict(zip(positions, combo)))
                for combo in product(vals, repeat=len(positions))]

    pools = {n: all_matrices(n) for n in (1, 2, 3)}
    cells = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
    checked = 0
    for _ in range(500):
        n, m = cells[rng.randrange(6)]
        terms = {}
        for _ in range(rng.randint(1, 4)):
            w = tuple(rng.randint(1, m) for _ in range(rng.randint(1, 3)))
            terms[w] = F3.from_int(rng.choice([1, 2]))
        p = NcPolynomial(F3, m, terms)
        pool = pools[n]
        total = len(pool) ** m
        if total <= 729:
            tuples = product(pool, repeat=m)
        else:
            tuples = ([pool[rng.randrange(len(pool))] for _ in range(m)]
                      for _ in range(729))
        for tup in tuples:
            tup = list(tup)
            assert evaluate(p, tup).eq(evaluate_structured(p, tup)), \
                (p.terms, [a.to_json() for a in tup])
            checked += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: 500 instances, {checked} tuples, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_2_order_ladder():
    """ord of a product of K disjoint commutators is exactly K for
    K = 1, 2, 3 over Q, computed symbolically.  Runtime budget: 30 s."""
    t0 = time.perf_counter()
    for K in (1, 2, 3):
        pairs = [(2 * k + 1, 2 * k + 2) for k in range(K)]
        p = comm_product(Q, pairs, 2 * K)
        assert exact_order(p) == K
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: ladder K=1..3 in {elapsed:.2f}s")
    assert elapsed < 30.0


def test_criterion_3_classification_table():
    """15-cell table: three polynomials of order 0, 1, 2 across
    n = 2..6, matched against the hand-derived case split."""
    x1 = NcPolynomial.parse("x1", Q)
    c1 = comm_product(Q, [(1, 2)], 2)
    c2 = comm_product(Q, [(1, 2), (3, 4)], 4)

    def dim(n, band):
        return (n - 1 - band) * (n - band) // 2

    expected = {}
    for n in range(2, 7):
        expected[("x1", n)] = ("dense_full", -1, dim(n, -1))
        expected[("c1", n)] = ("equals_band", 0, dim(n, 0))
    expected[("c2", 2)] = ("zero", 1, 0)                  # r >= n: image {0}
    expected[("c2", 3)] = ("equals_band", 1, dim(3, 1))   # r = n-1
    for n in (4, 5, 6):
        expected[("c2", n)] = ("dense_in_band", 1, dim(n, 1))

    for name, p in (("x1", x1), ("c1", c1), ("c2", c2)):
        for n in range(2, 7):
            got = classify(p, n)
            want = expected[(name, n)]
            assert (got.case, got.band, got.affine_dim) == want, \
                (name, n, got.case, got.band, got.affine_dim, want)
    # spot values called out explicitly: r=2,n=3 and r=2,n=5
    g3 = classify(c2, 3)
    assert (g3.case, g3.band) == ("equals_band", 1)
    g5 = classify(c2, 5)
    assert (g5.case, g5.band, g5.affine_dim) == ("dense_in_band", 1, 6)
    print("criterion 3: 15/15 cells match")


def test_criterion_4_band_containment():
    """50 random polynomials with ord >= 1 (every term carries a
    commutator factor): symbolically, each generic entry with
    k - j <= r-1 vanishes identically at n = r+1 and r+2; concretely,
    100 random tuples over F_101 land in band r-1.  Zero violations."""
    F101 = FieldDescriptor.parse("Fp:101")
    rng = random.Random(271828)
    t0 = time.perf_counter()
    done = 0
    while done < 50:
        m = rng.randint(2, 4)
        parts = []
        for _ in range(rng.randint(1, 2)):
            pairs = []
            for _ in range(rng.randint(1, 2)):
                a = rng.randint(1, m)
                b = rng.randint(1, m)
                while b == a:
                    b = rng.randint(1, m)
                pairs.append((a, b))
            q = comm_product(F101, pairs, m)
            if rng.random() < 0.3:
                q = times(q, variable(F101, m, rng.randint(1, m)))
            if rng.random() < 0.3:
                q = times(variable(F101, m, rng.randint(1, m)), q)
            parts.append(scaled(q, F101.from_int(rng.randint(1, 100))))
        p = parts[0]
        for q in parts[1:]:
            p = plus(p, q)
        if p.is_zero():
            continue
        r = exact_order(p)
        assert r >= 1, p.terms
        for n in (r + 1, r + 2):
            g = generic_evaluate(p, n)
            for j in range(1, n + 1):
                for k in range(j, n + 1):
                    if k - j <= r - 1:
                        assert (j, k) not in g, (p.terms, n, j, k)
        n = r + 2
        for _ in range(100):
            mats = [UTMatrix(F101, n, {(j, k): F101.sample(rng)
                                       for j in range(1, n + 1)
                                       for k in range(j, n + 1)})
                    for _ in range(p.nvars)]
            assert evaluate(p, mats).in_band(r - 1), p.terms
        done += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: 50 polynomials x 100 tuples, {elapsed:.1f}s")


def test_criterion_5_exact_witness_solving():
    """100 random (p, n, target) instances over Q with r in {1,2},
    n <= 5, band targets of height <= 10: at least 95 solve exactly on
    the first seed; any remainder fails only with DegenerateCoefficient
    and succeeds after reseeding.  Runtime budget: 120 s."""
    rng = random.Random(161803)
    t0 = time.perf_counter()
    first_try = 0
    reseeded = 0
    for inst in range(100):
        r = rng.choice([1, 2])
        if r == 1:
            m = rng.randint(2, 3)
            a = rng.randint(1, m)
            b = rng.randint(1, m)
            while b == a:
                b = rng.randint(1, m)
            p = comm_product(Q, [(a, b)], m)
        else:
            m = 4
            pairs = [(1, 2), (3, 4)] if rng.random() < 0.7 else [(1, 2), (1, 3)]
            p = comm_product(Q, pairs, m)
        if rng.random() < 0.4:
            p = scaled(p, Fraction(rng.randint(1, 5)))
        assert exact_order(p) == r
        n = rng.randint(r + 1, 5)
        entries = {}
        for (s, t) in band_coordinates(n, r):
            if rng.random() < 0.8:
                entries[(s, t)] = Fraction(rng.randint(-10, 10),
                                           rng.randint(1, 10))
        target = UTMatrix(Q, n, entries)
        try:
            res = solve_target(p, n, target, SolveOptions(seed=inst))
            assert res.status == "exact" and res.residual == 0.0
            assert evaluate(p, res.matrices).eq(target)
            first_try += 1
        except DegenerateCoefficient:
            res = solve_target(p, n, target,
                               SolveOptions(seed=100000 + inst, retries=32))
            assert res.status == "exact"
            assert evaluate(p, res.matrices).eq(target)
            reseeded += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: {first_try}/100 exact first try, "
          f"{reseeded} after reseed, {elapsed:.1f}s")
    assert first_try >= 95
    assert first_try + reseeded == 100
    assert elapsed < 120.0


def test_criterion_6_order_zero_boundary(capsys):
    """x1^2 over C reaches diagonal-nonzero targets with residual
    <= 1e-8; over F_5 the target E12 must fail (no square root of E12
    exists in T_2(F_5)), cross-checked by exhaustive enumeration."""
    p_c = NcPolynomial.parse("x1^2", C)
    rng = random.Random(577215)
    for trial in range(6):
        n = 2 if trial < 3 else 3
        entries = {}
        for j in range(1, n + 1):
            entries[(j, j)] = complex(rng.uniform(0.5, 3.0),
                                      rng.uniform(-2.0, 2.0))
            for k in range(j + 1, n + 1):
                entries[(j, k)] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        target = UTMatrix(C, n, entries)
        res = solve_diagonal_r0(p_c, n, target, SolveOptions(seed=trial))
        assert res.residual <= 1e-8, res.residual

    F5 = FieldDescriptor.parse("Fp:5")
    p5 = NcPolynomial.parse("x1^2", F5)
    e12 = UTMatrix(F5, 2, {(1, 2): F5.from_int(1)})
    with pytest.raises(DegenerateCoefficient):
        solve_diagonal_r0(p5, 2, e12, SolveOptions(seed=0, retries=16))

    # cross-check 1: library-independent brute force over all 125 matrices
    squares = set()
    for a, b, c in product(range(5), repeat=3):
        u = UTMatrix(F5, 2, {(1, 1): a, (1, 2): b, (2, 2): c})
        sq = u @ u
        squares.add((sq.entry(1, 1), sq.entry(1, 2), sq.entry(2, 2)))
    assert (0, 1, 0) not in squares

    # cross-check 2: the CLI's exhaustive enumerator agrees
    code = cli_main(["oracle-enum", "--poly", "x1^2", "--field", "Fp:5",
                     "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    image = json.loads(out)["image"]
    for mat in image:
        cells = {(e["j"], e["k"]): e["value"] for e in mat["entries"]}
        assert cells != {(1, 2): "1"}
    print("criterion 6: complex targets within 1e-8; E12 unreachable over F_5")


def test_criterion_7_open_set_witnesses():
    """p = [x1,x2][x3,x4], n = 5: 20 random nonzero polynomials of
    degree <= 2 in the six band coordinates are all hit exactly over Q
    (f nonzero at the achieved image point).  Zero failures."""
    p = comm_product(Q, [(1, 2), (3, 4)], 4)
    n = 5
    coords = band_coordinates(n, 2)
    assert len(coords) == 6
    rng = random.Random(141421)
    t0 = time.perf_counter()
    for trial in range(20):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(0, 2)
            mono = []
            for _ in range(deg):
                mono.append(out_var(*coords[rng.randrange(6)]))
            key = []
            for v in sorted(set(mono)):
                key.append((v, mono.count(v)))
            coeff = Fraction(rng.randint(-5, 5))
            if coeff == 0:
                coeff = Fraction(1)
            terms[tuple(key)] = terms.get(tuple(key), Fraction(0)) + coeff
        terms = {k: v for k, v in terms.items() if v}
        if not terms:
            terms = {((out_var(1, 3), 1),): Fraction(1)}
        f = CPolynomial(Q, terms)
        res = hit_open_set(p, n, f, SolveOptions(seed=trial))
        achieved = evaluate(p, res.matrices)
        value = f.eval_full({out_var(s, t): achieved.entry(s, t)
                             for s, t in coords})
        assert value != 0, (trial, f.render())
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: 20/20 open sets hit, {elapsed:.1f}s")


def test_criterion_8_sweep_plan_soundness():
    """All 28 pairs (r, n) with 1 <= r < n <= 8: fresh positions are
    new and never reused, every target entry is scheduled once, and
    (s,s+1) lies in the overlap with earlier supports whenever
    r + t' >= 2 (for r + t' = 1 the supports are disjoint singletons and
    the overlap is empty).  Runtime budget: 1 s."""
    t0 = time.perf_counter()
    pairs = 0
    for n in range(2, 9):
        for r in range(1, n):
            plan = build_sweep_plan_rn(r, n, tuple(1 for _ in range(r)))
            seen = set()
            fresh_seen = set()
            for s, t, fresh in plan:
                support = band_sets(s, t, r)
                fresh_pos = (fresh[1], fresh[2])
                assert fresh_pos == (r + s - 1, t)
                assert fresh_pos in support
                assert fresh_pos not in seen           # freshness
                assert fresh_pos not in fresh_seen     # single scheduling
                fresh_seen.add(fresh_pos)
                if seen:
                    overlap = support & seen
                    if t - s >= 2:
                        assert (s, s + 1) in overlap, (r, n, s, t)
                    else:
                        assert not overlap, (r, n, s, t)
                seen |= support
            assert sorted((s, t) for s, t, _ in plan) == \
                sorted(band_coordinates(n, r))
            pairs += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 8: {pairs} (r,n) pairs verified, {elapsed:.3f}s")
    assert pairs == 28
    assert elapsed < 1.0
