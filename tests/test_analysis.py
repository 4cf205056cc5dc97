"""Order computation, coefficient polynomials, band sets, classification."""

import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest

import utpoly.analysis
import utpoly.triangular
from nc_terms import bracket, parts, plus, times
from plan_reference import band_sets
from utpoly.analysis import (classify, coeff_poly, exact_order,
                             leading_tuples, order)
from utpoly.cpoly import CPolynomial, entry_var
from utpoly.errors import OrderMismatch, ZeroInput
from utpoly.fields import FieldDescriptor
from utpoly.cli import main
from utpoly.freealg import NcPolynomial, shared_parse
from utpoly.triangular import generic_evaluate, live_slots

Q = FieldDescriptor.parse("Q")
F7 = FieldDescriptor.parse("Fp:7")


def comm_product(K):
    """[x1,x2][x3,x4]...[x_{2K-1},x_{2K}]"""
    return NcPolynomial.parse("*".join(
        f"(x{2 * k + 1}*x{2 * k + 2}-x{2 * k + 2}*x{2 * k + 1})" for k in range(K)), Q)


def is_identity(p, n):
    """p is an identity of size n iff its order is not below n."""
    return exact_order(p, n) is None


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
    p = comm_product(1)
    rep = order(p)
    assert rep.r == 1
    assert rep.witness_entry == (1, 2)  # first entry in band order
    assert rep.witness_point is not None
    entry = generic_evaluate(p, rep.r + 1)[rep.witness_entry]
    assert entry.eval_full(rep.witness_point) != 0
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
    # the index search below the order finds nothing, and says so
    assert exact_order(comm_product(2), 2) is None
    assert exact_order(comm_product(2), 3) == 2 == exact_order(comm_product(2))
    rep = order(comm_product(2), max_n=1)
    assert rep.capped and rep.r is None
    assert rep.to_json(Q)["r"] == "cap"
    with pytest.raises(ZeroInput):
        order(comm_product(2), max_n=0)


def test_order_over_prime_field_is_symbolic():
    # x1^7 - x1 kills every scalar in F_7 pointwise but is not the zero
    # polynomial on 1x1 matrices symbolically: order stays 0.
    p = NcPolynomial.parse("x1^7 - x1", F7)
    assert exact_order(p) == 0


def test_coeff_poly_frozen_oracles():
    c1 = comm_product(1)
    assert parts(coeff_poly(c1, (1,))) == parts(CPolynomial.parse("z[2,2] - z[1,2]", Q))
    assert parts(coeff_poly(c1, (2,))) == parts(CPolynomial.parse("z[1,1] - z[2,1]", Q))
    x = NcPolynomial.parse("x1", Q)
    q = coeff_poly(x, (1,))
    assert q.terms == {(): Fraction(1)}


def reference_coeff_poly(p, slots):
    """The chain coefficient the long way: entry (1, k+1) of the generic
    evaluation, every off-chain x set to zero, then the coefficient of
    the chain x[1,2,i_1]*...*x[k,k+1,i_k]: the terms holding every chain
    variable, with those variables stripped, summed in term order."""
    k = len(slots)
    entry = generic_evaluate(p, k + 1).get((1, k + 1), CPolynomial(p.field, {}))
    chain = [entry_var(l, l + 1, slots[l - 1]) for l in range(1, k + 1)]
    zero = p.field.zero()
    off = {v: zero for v in entry.variables()
           if v[0] == "x" and v not in chain}
    out = {}
    for mono, c in entry.eval_partial(off).terms.items():
        rest = tuple((v, e) for v, e in mono if v not in chain)
        # a path uses each arc once, so no chain variable is squared
        assert all(e == 1 for v, e in mono if v in chain), mono
        if len(rest) == len(mono) - k:
            out[rest] = out.get(rest, zero) + c
    return CPolynomial(p.field, out)


def _bits(c):
    return (c.real.hex(), c.imag.hex()) if isinstance(c, complex) else c


def _terms_bits(q):
    return [(mono, _bits(c)) for mono, c in q.terms.items()]


def random_polys(desc, seed, count=12):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 8)):
            w = tuple(rng.randint(1, m) for _ in range(rng.randint(1, 5)))
            c = desc.from_int(rng.randint(-4, 4))
            if desc.kind == "complex" and rng.random() < 0.5:
                c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            terms[w] = terms.get(w, desc.zero()) + c
        yield NcPolynomial(desc, m, terms)


FIELDS = ["Q", "Fp:3", "Fp:101", "C", "C:0.5"]


@pytest.mark.parametrize("field", FIELDS)
def test_coeff_poly_matches_generic_evaluation(field):
    """Placement counting gives the generic evaluation's coefficient bit
    for bit, with the same term order (the summation order of eval_full)."""
    desc = FieldDescriptor.parse(field)
    for p in random_polys(desc, field):
        for k in range(1, 4):
            for slots in product(range(1, p.nvars + 1), repeat=k):
                got = coeff_poly(p, slots)
                want = reference_coeff_poly(p, slots)
                assert _terms_bits(got) == _terms_bits(want), slots


@pytest.mark.parametrize("field", FIELDS)
def test_live_slot_index_lists_exactly_the_nonzero_tuples(field):
    """index[k] holds every k-slot tuple whose reference coefficient is
    nonzero and no other, in lexicographic order, each with the
    reference polynomial term for term."""
    desc = FieldDescriptor.parse(field)
    for p in random_polys(desc, "index " + field):
        for k in range(1, 5):
            want = {slots: reference_coeff_poly(p, slots)
                    for slots in product(range(1, p.nvars + 1), repeat=k)}
            want = {s: q for s, q in want.items() if not q.is_zero()}
            index = live_slots(p, k)
            assert list(index) == list(want)
            for slots in index:
                got = coeff_poly(p, slots)
                assert _terms_bits(got) == _terms_bits(want[slots]), slots


def test_each_placement_of_a_word_has_its_own_key():
    """A placement q_1 < ... < q_k of a word puts q_l - q_{l-1} - 1
    letters on row l, so its monomial fixes it: no two placements share
    a (slots, monomial) key, and live_slots adds each once, uncounted.
    For one word c*w the index thus holds C(len(w), k) monomials, every
    one with coefficient c, at every k."""
    rng = random.Random(19)
    for _ in range(300):
        word = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 9)))
        p = NcPolynomial(Q, 2, {word: Fraction(3)})
        for k in range(1, len(word) + 1):
            coeffs = [c for slots in live_slots(p, k)
                      for c in coeff_poly(p, slots).terms.values()]
            assert len(coeffs) == math.comb(len(word), k), (word, k)
            assert set(coeffs) == {Fraction(3)}, (word, k)


def test_evicted_context_gives_the_same_answers(tmp_path, capsys):
    """A CLI text pushed out of the shared parse cache by as many others
    as it holds is parsed again, with a fresh index, and gives the same
    stdout; generic evaluations, which nothing caches, are recomputed
    with the same results too."""
    rng = random.Random(77)
    text = "x1*x2*x3 - 2*x3*x1*x2 + x2*x2"
    mats = tmp_path / "m.json"
    mats.write_text(json.dumps({"matrices": [{"n": 4, "entries": [
        {"j": j, "k": k, "value": str(rng.randint(-5, 5))}
        for j in range(1, 5) for k in range(j, 5)]} for _ in range(3)]}))

    def request(poly, *argv):
        assert main([*argv, "--poly", poly]) == 0
        return capsys.readouterr().out

    structured = ("eval", "--matrices", str(mats), "--route", "structured")
    generic = ("eval", "--generic", "--n", "3")
    shared_parse.cache_clear()
    first = request(text, *structured)
    first_generic = request(text, *generic)
    p = shared_parse(text, Q, None)
    index = p.index[2]
    for c in range(1, shared_parse.cache_info().maxsize + 1):
        request(f"{c}*x1*x2", "classify", "--n", "2")
    again = shared_parse(text, Q, None)
    assert again is not p and not again.index       # parsed again
    assert request(text, *structured) == first
    assert again.index[2] == index and again.index[2] is not index
    assert request(text, *generic) == first_generic


@pytest.mark.parametrize("first", ["C", "C:0.5"])
def test_contexts_do_not_mix_tolerances(first):
    """Slot 1 of x1*x2*x1 - 1.25*x1*x1*x2 gets 1 - 1.25 on z[2,1]*z[2,2]:
    a term within C:0.5 but not within C's default tolerance.  The
    shared parse keeps one polynomial, and so one index, per tolerance."""
    mono = (((("z", 2, 1), 1), (("z", 2, 2), 1)))
    second = "C:0.5" if first == "C" else "C"
    shared_parse.cache_clear()
    for field in (first, second):
        desc = FieldDescriptor.parse(field)
        p = shared_parse("x1*x2*x1 - 1.25*x1*x1*x2", desc, None)
        assert p.field == desc
        assert (1,) in live_slots(p, 1)
        q = coeff_poly(p, (1,))
        assert (mono in q.terms) == (field == "C"), field
        assert _terms_bits(q) == _terms_bits(reference_coeff_poly(p, (1,)))


def random_ordered_polys(desc, seed, count=12):
    """Random polynomials of order 1 to 3 and some of order 0: a product
    of up to three commutators of random words, perhaps after a word,
    perhaps plus a random multiple of one more commutator or word."""
    rng = random.Random(seed)

    def word(m):
        w = tuple(rng.randint(1, m) for _ in range(rng.randint(1, 2)))
        return NcPolynomial(desc, m, {w: desc.one()})

    while count:
        m = rng.randint(1, 3)
        out = word(m) if rng.random() < 0.3 else None
        for _ in range(rng.randint(1, 3)):
            c = bracket(word(m), word(m))
            out = c if out is None else times(out, c)
        if rng.random() < 0.3:
            c = desc.from_int(rng.randint(1, 2))
            if desc.kind == "complex" and rng.random() < 0.5:
                c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            extra = word(m) if rng.random() < 0.3 else \
                bracket(word(m), word(m))
            out = plus(out, NcPolynomial(desc, m, {w: c * v
                                                   for w, v in extra.terms.items()}))
        if not out.is_zero():
            count -= 1
            yield out


def generic_order_r(p, max_n):
    """The order probed through generic evaluations at sizes
    1..max_n+1, None when every one of them vanishes."""
    return next((size - 1 for size in range(1, max_n + 2)
                 if generic_evaluate(p, size)), None)


def _forbidden(*args, **kwargs):
    raise AssertionError("generic_evaluate called")


@pytest.mark.parametrize("field", FIELDS)
def test_classify_matches_generic_probe(field, monkeypatch):
    """classify and exact_order read the live-slot index and agree with
    the generic probe, bounds and ZeroInput included, without making a
    generic evaluation.  classify searches the order up to n;
    exact_order(p, n) is None exactly when p is an identity of size n,
    exact_order(p, cap + 1) is the probe capped at cap, and exact_order
    with no bound is the probe at deg p + 1, which always resolves the
    order."""
    desc = FieldDescriptor.parse(field)
    polys = list(random_polys(desc, "classify " + field, count=6))
    polys += list(random_ordered_polys(desc, "classify " + field))
    seen = set()
    for p in polys:
        want = {n: generic_order_r(p, n) for n in range(1, 5)}
        identity = {n: not generic_evaluate(p, n) for n in range(1, 5)}
        orders = {cap: generic_order_r(p, cap) for cap in (0, 1, 2)}
        order_r = generic_order_r(p, p.degree() + 1)
        assert order_r is not None
        with monkeypatch.context() as mp:
            mp.setattr(utpoly.analysis, "generic_evaluate", _forbidden)
            mp.setattr(utpoly.triangular, "generic_evaluate", _forbidden)
            for n, expected in want.items():
                got = classify(p, n)
                # the case table is a function of (r, n) alone
                assert got.r == expected, (p.terms, n)
                assert expected is not None or got.case == "zero"
                seen.add(got.case)
            for n, expected in identity.items():
                assert is_identity(p, n) == expected, (p.terms, n)
            for cap, expected in orders.items():
                got = exact_order(p, cap + 1)
                assert got == expected, (p.terms, cap)
                seen.add(("order", "cap" if got is None else "r"))
            assert exact_order(p) == order_r, p.terms
    with pytest.raises(ZeroInput):
        exact_order(NcPolynomial(desc, 2, {}))
    assert {"dense_full", "equals_band", "zero"} <= seen
    assert {("order", "cap"), ("order", "r")} <= seen


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
    assert max((sum(e for _, e in mono) for mono in q.terms), default=0) <= c1.degree() - 1


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
    assert b == frozenset({(1, 2)})
    b2 = band_sets(1, 4, 2)
    assert b2 == frozenset({(1, 2), (2, 3), (3, 4), (1, 3), (2, 4)})
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
                        assert (j, k) not in g, (K, n, j, k)
            assert all(k - j > r - 1 for j, k in g)


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
