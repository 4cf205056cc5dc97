"""Order computation, coefficient polynomials, band sets, classification."""

import random
from fractions import Fraction
from itertools import product

import pytest

from utpoly.analysis import (BandIndexSet, band_sets, classify, coeff_poly,
                             exact_order, is_identity, leading_tuples, order)
from utpoly.cpoly import CPolynomial, entry_var
from utpoly.errors import CapReached, OrderMismatch
from utpoly.fields import FieldDescriptor
from utpoly.freealg import NcPolynomial, commutator
from utpoly.triangular import generic_evaluate

Q = FieldDescriptor.parse("Q")
F7 = FieldDescriptor.parse("Fp:7")


def X(i, m):
    return NcPolynomial.variable(Q, m, i)


def comm_product(K):
    """[x1,x2][x3,x4]...[x_{2K-1},x_{2K}]"""
    m = 2 * K
    out = None
    for k in range(K):
        c = commutator(X(2 * k + 1, m), X(2 * k + 2, m))
        out = c if out is None else out * c
    return out


def test_is_identity_ladder():
    c1 = comm_product(1)
    assert is_identity(c1, 1)
    assert not is_identity(c1, 2)
    c2 = comm_product(2)
    assert is_identity(c2, 1) and is_identity(c2, 2)
    assert not is_identity(c2, 3)
    x = NcPolynomial.parse("x1", Q)
    assert not is_identity(x, 1)


def test_identity_monotone_in_n():
    """An identity of larger matrices restricts to smaller ones, so
    non-identities stay non-identities as n grows."""
    rng = random.Random(30)
    for _ in range(15):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
            terms[w] = Fraction(rng.randint(-3, 3))
        terms = {w: c for w, c in terms.items() if c}
        if not terms:
            continue
        p = NcPolynomial(Q, 2, terms)
        for n in range(1, 4):
            if not is_identity(p, n):
                assert not is_identity(p, n + 1)


def test_order_ladder():
    assert exact_order(NcPolynomial.parse("x1", Q)) == 0
    assert exact_order(comm_product(1)) == 1
    assert exact_order(comm_product(2)) == 2
    assert exact_order(comm_product(3)) == 3


def test_order_zero_polynomials():
    assert exact_order(NcPolynomial.parse("x1^2", Q)) == 0
    assert exact_order(NcPolynomial.parse("x1 + x1^2", Q)) == 0
    assert exact_order(NcPolynomial.parse("x1*x2 + x2*x1", Q)) == 0


def test_order_report_witness():
    rep = order(comm_product(1))
    assert rep.r == 1
    assert rep.witness_entry == (1, 2)  # first entry in band order
    assert rep.witness_point is not None
    assert rep.witness_value is not None and rep.witness_value != 0
    data = rep.to_json(Q)
    assert data["r"] == 1


@pytest.mark.parametrize("first,coeff", [("C", "0.7"), ("C:0.5", "0.6")])
def test_order_does_not_mix_tolerances(first, coeff):
    """The scalar part (1 - c)*z1*z2 vanishes within 0.5 but not within
    the default tolerance; a cache keyed without eps answered the second
    call with the first call's order."""
    text = f"x1*x2 - {coeff}*x2*x1"
    expected = {"C": 0, "C:0.5": 1}
    second = "C:0.5" if first == "C" else "C"
    for field in (first, second):
        p = NcPolynomial.parse(text, FieldDescriptor.parse(field))
        assert exact_order(p) == expected[field], field


def test_order_cap_is_honest():
    with pytest.raises(CapReached):
        exact_order(comm_product(2), max_n=1)
    rep = order(comm_product(2), max_n=1)
    assert rep.capped and rep.r is None
    assert rep.to_json(Q)["r"] == "cap"


def test_order_over_prime_field_is_symbolic():
    # x1^7 - x1 kills every scalar in F_7 pointwise but is not the zero
    # polynomial on 1x1 matrices symbolically: order stays 0.
    p = NcPolynomial.parse("x1^7 - x1", F7)
    assert exact_order(p) == 0


def test_coeff_poly_frozen_oracles():
    c1 = comm_product(1)
    assert coeff_poly(c1, (1,)) == CPolynomial.parse("z[2,2] - z[1,2]", Q)
    assert coeff_poly(c1, (2,)) == CPolynomial.parse("z[1,1] - z[2,1]", Q)
    x = NcPolynomial.parse("x1", Q)
    q = coeff_poly(x, (1,))
    assert q.is_constant() and q.constant_value() == Fraction(1)


def reference_coeff_poly(p, slots):
    """The chain coefficient the long way: entry (1, k+1) of the generic
    evaluation, every off-chain x set to zero, then the coefficient of
    the chain x[1,2,i_1]*...*x[k,k+1,i_k]."""
    k = len(slots)
    entry = generic_evaluate(p, k + 1).entry(1, k + 1)
    chain = [entry_var(l, l + 1, slots[l - 1]) for l in range(1, k + 1)]
    zero = p.field.zero()
    off = {v: zero for v in entry.variables()
           if v[0] == "x" and v not in chain}
    return entry.eval_partial(off).coefficient_of(chain)


def _bits(c):
    return (c.real.hex(), c.imag.hex()) if isinstance(c, complex) else c


@pytest.mark.parametrize("field", ["Q", "Fp:3", "Fp:101", "C", "C:0.5"])
def test_coeff_poly_matches_generic_evaluation(field):
    """Placement counting gives the generic evaluation's coefficient bit
    for bit, with the same term order (the summation order of eval_full)."""
    desc = FieldDescriptor.parse(field)
    rng = random.Random(field)
    for _ in range(12):
        m = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 8)):
            w = tuple(rng.randint(1, m) for _ in range(rng.randint(1, 5)))
            c = desc.from_int(rng.randint(-4, 4))
            if desc.kind == "complex" and rng.random() < 0.5:
                c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            terms[w] = terms.get(w, desc.zero()) + c
        p = NcPolynomial(desc, m, terms)
        for k in range(1, 4):
            for slots in product(range(1, m + 1), repeat=k):
                got = coeff_poly(p, slots)
                want = reference_coeff_poly(p, slots)
                assert [(mono, _bits(c)) for mono, c in got.terms.items()] == \
                    [(mono, _bits(c)) for mono, c in want.terms.items()], slots


def test_coeff_poly_short_tuples_vanish_at_positive_order():
    """At order r, every coefficient polynomial of a tuple shorter than r
    is identically zero; the first nonzero layer has length exactly r."""
    c2 = comm_product(2)
    for i in range(1, 5):
        assert coeff_poly(c2, (i,)).is_zero()
    assert any(not coeff_poly(c2, (i, j)).is_zero()
               for i in range(1, 5) for j in range(1, 5))


def test_coeff_poly_degree_bounded_by_poly_degree():
    c1 = comm_product(1)
    q = coeff_poly(c1, (1,))
    assert q.degree() <= c1.degree() - 1


def test_leading_tuples():
    assert leading_tuples(comm_product(1), 1) == [(1,), (2,)]
    lead2 = leading_tuples(comm_product(2), 2)
    assert (1, 3) in lead2
    assert lead2 == sorted(lead2)  # lexicographic order
    assert all(len(t) == 2 for t in lead2)
    # slots from the first commutator then the second
    assert set(lead2) == {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_leading_tuples_requires_positive_order():
    with pytest.raises(OrderMismatch):
        leading_tuples(comm_product(1), 0)


def test_band_sets_shapes():
    b = band_sets(1, 2, 1)
    assert b.arc_support == frozenset({(1, 2)})
    b2 = band_sets(1, 4, 2)
    assert b2.arc_support == frozenset({(1, 2), (2, 3), (3, 4), (1, 3), (2, 4)})
    with pytest.raises(ValueError):
        band_sets(2, 2, 1)
    with pytest.raises(ValueError):
        band_sets(1, 3, 0)


def test_generic_band_vanishing():
    """Entries below the order band vanish symbolically for every n."""
    for K in (1, 2):
        p = comm_product(K)
        r = K
        for n in range(r + 1, r + 3):
            g = generic_evaluate(p, n)
            for j in range(1, n + 1):
                for k in range(j, n + 1):
                    if k - j <= r - 1:
                        assert g.ring.is_zero(g.entry(j, k)), (K, n, j, k)
            assert g.in_band(r - 1)


def test_classification_reference_cells():
    c2 = comm_product(2)
    got = classify(c2, 3)
    assert (got.case, got.band, got.affine_dim) == ("equals_band", 1, 1)
    got = classify(c2, 5)
    assert (got.case, got.r, got.band, got.affine_dim) == ("dense_in_band", 2, 1, 6)
    got = classify(NcPolynomial.parse("x1", Q), 4)
    assert (got.case, got.band) == ("dense_full", -1)
    assert got.affine_dim == 10  # full T_4 has 4*5/2 cells
    got = classify(comm_product(1), 2)
    assert (got.case, got.band, got.affine_dim) == ("equals_band", 0, 1)
    got = classify(c2, 2)
    assert (got.case, got.affine_dim) == ("zero", 0)


def test_classification_zero_case_band():
    got = classify(comm_product(3), 3)  # r = 3 >= n = 3
    assert got.case == "zero"
    assert got.band == got.n - 1
    assert got.affine_dim == 0


def test_classification_affine_dim_formula():
    for n in range(2, 7):
        got = classify(comm_product(1), n)
        band = got.band
        assert got.affine_dim == (n - 1 - band) * (n - band) // 2


def test_classify_deterministic():
    p = comm_product(2)
    a, b = classify(p, 4), classify(p, 4)
    assert (a.case, a.r, a.band, a.affine_dim) == (b.case, b.r, b.band, b.affine_dim)


def test_classify_json_shape():
    data = classify(comm_product(1), 3).to_json()
    assert set(data) == {"r", "n", "case", "band", "affine_dim"}
