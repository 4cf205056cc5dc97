"""Cross-field checks: Q answers reduced mod a prime l against F_l's own.

Reduction mod l is a ring homomorphism from the rationals whose
denominators l does not divide onto F_l.  Evaluation, coefficient
polynomials and witnesses are built from ring operations only, so over
such inputs the Q answer, reduced, is the F_l answer of the reduced
inputs.  The Q paths run on integers over running denominators (the
direct fold, eval_full, the generic fold, the path walk); F_l runs on
residues, so a slip in either shows here.  An l that divides some
denominator is skipped, and reduction may kill coefficients, so the
order over F_l is only at least the order over Q.
"""

import random
from fractions import Fraction

import pytest

from nc_terms import bracket, times
from utpoly.analysis import coeff_poly, exact_order
from utpoly.errors import UtpolyError
from utpoly.fields import FieldDescriptor
from utpoly.freealg import NcPolynomial
from utpoly.solver import SolveOptions, solve_target, verify
from utpoly.triangular import (FieldRing, UTMatrix, evaluate,
                               evaluate_structured, live_slots)

Q = FieldDescriptor.parse("Q")
PRIMES = [101, 1000003]


def red(q: Fraction, ell: int) -> int:
    """q mod ell, for a denominator ell does not divide."""
    return q.numerator * pow(q.denominator, -1, ell) % ell


def rational(rng, ell, height=10 ** 6):
    """A random rational; now and then a multiple of ell, so that it
    reduces to zero, or zero itself."""
    roll = rng.random()
    if roll < 0.1:
        return Fraction(0)
    num = rng.randint(-height, height) or 1
    if roll < 0.25:
        num *= ell
    return Fraction(num, rng.randint(1, height))


def random_poly(rng, ell):
    """p over Q in up to three variables: words sharing prefixes, a
    commutator-like pair now and then, times up to two commutators of
    random words, so orders 0 to 3 all occur; some coefficients are
    multiples of ell."""
    m = rng.randint(1, 3)

    def word(lo=1, hi=3):
        return tuple(rng.randint(1, m) for _ in range(rng.randint(lo, hi)))

    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            w, c = word(), rational(rng, ell)
            terms[w] = terms.get(w, Fraction(0)) + c
            if len(w) >= 2 and rng.random() < 0.5:
                a = rng.randrange(len(w) - 1)
                swapped = w[:a] + (w[a + 1], w[a]) + w[a + 2:]
                terms[swapped] = terms.get(swapped, Fraction(0)) - c
        p = NcPolynomial(Q, m, terms)
        for _ in range(rng.randint(0, 2)):
            p = times(p, bracket(NcPolynomial(Q, m, {word(1, 2): Q.one()}),
                                 NcPolynomial(Q, m, {word(1, 2): Q.one()})))
        if not p.is_zero():
            return p


def reduced_poly(p, ell):
    """(F_ell, p mod ell), or None when ell divides a denominator of p."""
    if any(c.denominator % ell == 0 for c in p.terms.values()):
        return None
    f = FieldDescriptor.parse(f"Fp:{ell}")
    return f, NcPolynomial(f, p.nvars, {w: red(c, ell) for w, c in p.terms.items()})


def reduced_matrix(a, f, ell):
    """a mod ell over f, or None when ell divides a denominator of a."""
    if any(v.denominator % ell == 0 for v in a.entries.values()):
        return None
    return UTMatrix(FieldRing(f), a.n, {pos: red(v, ell) for pos, v in a.entries.items()})


def reduced_entries(a, ell):
    """a's entries mod ell, zeros dropped: an F_ell entry map at rest."""
    return {pos: w for pos, v in a.entries.items() if (w := red(v, ell))}


def cases(ell, count):
    """(rng, p, F_ell, p mod ell) for random p over Q whose denominators
    ell does not divide."""
    rng = random.Random(f"crossfield {ell}")
    made = 0
    while made < count:
        p = random_poly(rng, ell)
        reduced = reduced_poly(p, ell)
        if reduced is not None:
            made += 1
            yield rng, p, *reduced


@pytest.mark.parametrize("ell", PRIMES)
def test_evaluation_commutes_with_reduction(ell):
    """evaluate and evaluate_structured over Q, reduced mod ell, equal
    both routes over F_ell at the reduced tuple."""
    checked = 0
    for rng, p, f, pl in cases(ell, 40):
        n = rng.randint(1, 5)
        mats = [UTMatrix(FieldRing(Q), n, {(j, k): rational(rng, ell)
                                           for j in range(1, n + 1)
                                           for k in range(j, n + 1)})
                for _ in range(p.nvars)]
        reduced = [reduced_matrix(a, f, ell) for a in mats]
        if None in reduced:
            continue
        if pl.is_zero():
            want = {}
        else:
            want = evaluate(pl, reduced).entries
            assert evaluate_structured(pl, reduced).entries == want
        assert reduced_entries(evaluate(p, mats), ell) == want, p.terms
        assert reduced_entries(evaluate_structured(p, mats), ell) == want, p.terms
        checked += 1
    assert checked >= 25


@pytest.mark.parametrize("ell", PRIMES)
def test_coefficient_polynomials_commute_with_reduction(ell):
    """coeff_poly over Q, reduced mod ell, is coeff_poly over F_ell, for
    every tuple live over either field; the order over F_ell is at least
    the order over Q, and more when reduction kills the leading part."""
    killed = NcPolynomial.parse(f"{ell}/7*x1*x1 + x1*x2 - x2*x1", Q)
    for _, p, _, pl in [*cases(ell, 40), (None, killed, *reduced_poly(killed, ell))]:
        if pl.is_zero():
            continue
        for k in range(1, min(p.degree(), 4) + 1):
            for slots in {*live_slots(p, k), *live_slots(pl, k)}:
                got = {mono: w for mono, c in coeff_poly(p, slots).terms.items()
                       if (w := red(c, ell))}
                assert got == coeff_poly(pl, slots).terms, (p.terms, slots)
        assert exact_order(pl) >= exact_order(p), p.terms
    assert (exact_order(killed), exact_order(reduced_poly(killed, ell)[1])) == (0, 1)


@pytest.mark.parametrize("ell", PRIMES)
def test_a_reduced_q_witness_verifies_over_f_ell(ell):
    """A Q witness u with p(u) = T, reduced mod ell, meets T mod ell over
    F_ell, both routes agreeing, when ell divides no denominator of p, u
    or T."""
    solved = 0
    for rng, p, f, pl in cases(ell, 30):
        r = exact_order(p)
        if pl.is_zero() or r > 3:
            continue
        n = r + rng.randint(1, 2)
        target = UTMatrix(FieldRing(Q), n, {
            (s, t): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for s in range(1, n + 1) for t in range(s + r, n + 1)})
        try:
            res = solve_target(p, n, target, SolveOptions(seed=solved, height=9))
        except UtpolyError:
            continue
        assert res.report["target_met"] and res.report["dual_evaluation_agrees"]
        witness = [reduced_matrix(a, f, ell) for a in res.matrices]
        goal = reduced_matrix(target, f, ell)
        if None in witness or goal is None:
            continue
        report = verify(pl, witness, goal)
        assert report["target_met"] and report["dual_evaluation_agrees"], p.terms
        solved += 1
    assert solved >= 10
