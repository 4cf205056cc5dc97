"""Commutative polynomials over structured variable keys."""

import random
from fractions import Fraction

import pytest

from nc_terms import parts
from utpoly.cpoly import CPolynomial, diag_var, entry_var, out_var, render_var
from utpoly.errors import ParseError, UnboundVariable
from utpoly.fields import FieldDescriptor

Q = FieldDescriptor.parse("Q")


def test_variable_key_constructors():
    assert entry_var(1, 3, 2) == ("x", 1, 3, 2)
    assert diag_var(2, 1) == ("z", 2, 1)
    assert out_var(1, 4) == ("y", 1, 4)
    with pytest.raises(ValueError):
        entry_var(3, 3, 1)  # needs j < k
    with pytest.raises(ValueError):
        out_var(4, 2)  # needs s <= t


def test_render_var():
    assert render_var(entry_var(1, 2, 3)) == "x[1,2,3]"
    assert render_var(diag_var(2, 1)) == "z[2,1]"
    assert render_var(out_var(1, 3)) == "y[1,3]"


def test_parse_and_render_roundtrip():
    texts = [
        "x[1,2,1]*z[1,1] - 2*z[2,1]^2",
        "y[1,3]*y[2,4] + 3",
        "z[1,1]*z[2,1]*z[3,1]",
        "-x[1,2,1] + 1/2",
    ]
    for text in texts:
        p = CPolynomial.parse(text, Q)
        assert parts(CPolynomial.parse(p.render(), Q)) == parts(p)


def test_parse_kind_filter():
    CPolynomial.parse("y[1,2]", Q, kinds="y")
    with pytest.raises(ParseError):
        CPolynomial.parse("z[1,1]", Q, kinds="y")


def test_constants_allowed_here():
    p = CPolynomial.parse("3", Q)
    assert p.terms == {(): Fraction(3)}


def test_arithmetic_and_degree():
    a = CPolynomial.parse("z[1,1] + z[2,1]", Q)
    b = CPolynomial.parse("z[1,1] - z[2,1]", Q)
    prod = a * b
    assert parts(prod) == parts(CPolynomial.parse("z[1,1]^2 - z[2,1]^2", Q))
    assert max(sum(e for _, e in m) for m in prod.terms) == 2
    assert max(dict(m).get(diag_var(1, 1), 0) for m in prod.terms) == 2
    assert max(dict(m).get(diag_var(3, 1), 0) for m in prod.terms) == 0
    assert CPolynomial.parse("(z[1,1] + z[2,1]) - (z[1,1] + z[2,1])", Q).is_zero()


@pytest.mark.parametrize("text", ["y[1,\u0663]", "x[1,2,1_0]", "z[+1,1]"])
def test_parse_indices_need_ascii_digits(text):
    # int() reads these indices as 3, 10 and 1
    with pytest.raises(ParseError):
        CPolynomial.parse(text, Q)


def test_eval_full_and_unbound():
    p = CPolynomial.parse("x[1,2,1]*z[1,1] + 2", Q)
    v = p.eval_full({entry_var(1, 2, 1): Fraction(3), diag_var(1, 1): Fraction(5)})
    assert v == Fraction(17)
    with pytest.raises(UnboundVariable):
        p.eval_full({entry_var(1, 2, 1): Fraction(3)})


def _eval_fractions(p, assignment):
    """Reference for eval_full over Q: Fraction products and sums, term
    by term."""
    acc = Fraction(0)
    for m, c in p.terms.items():
        prod = c
        for key, e in m:
            prod = prod * Fraction(assignment[key]) ** e
        acc = acc + prod
    return acc


def test_eval_full_over_q_matches_term_by_term_fractions():
    """The integer sum gives the Fraction of the term-by-term sum, for the
    zero polynomial, constant terms, cancelling terms, int values and
    denominators up to 10^6."""
    rng = random.Random(127)
    keys = [diag_var(j, i) for j in range(1, 4) for i in range(1, 3)]
    keys.append(entry_var(1, 2, 1))
    polys = [CPolynomial(Q, {}), CPolynomial(Q, {(): Fraction(-7, 3)}),
             CPolynomial.parse("z[1,1]*z[2,1] - z[2,1]*z[1,1] + z[1,2]^3", Q)]
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            mono = tuple(sorted({k: rng.randint(1, 3)
                                 for k in rng.sample(keys, rng.randint(0, 3))}.items()))
            terms[mono] = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        polys.append(CPolynomial(Q, terms))
    for p in polys:
        for kind in ("fraction", "int", "zero"):
            point = {}
            for k in keys:
                if kind == "int" or kind == "zero" and rng.random() < 0.3:
                    point[k] = rng.randint(-9, 9) if kind == "int" else 0
                else:
                    point[k] = Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                        rng.randint(1, 10 ** 6))
            got = p.eval_full(point)
            assert type(got) is Fraction and got == _eval_fractions(p, point), p


@pytest.mark.parametrize("field", ["Q", "Fp:7", "C"])
def test_eval_full_names_the_first_unbound_variable(field):
    desc = FieldDescriptor.parse(field)
    p = CPolynomial.parse("2*z[1,1] + z[1,1]*x[1,2,1]*z[2,1]", desc)
    point = {diag_var(1, 1): desc.from_int(3), diag_var(2, 1): desc.from_int(4)}
    with pytest.raises(UnboundVariable) as exc:
        p.eval_full(point)
    assert str(exc.value) == "x[1,2,1]"


def test_eval_partial():
    p = CPolynomial.parse("x[1,2,1]*z[1,1] + z[2,1]", Q)
    q = p.eval_partial({diag_var(1, 1): Fraction(2)})
    assert parts(q) == parts(CPolynomial.parse("2*x[1,2,1] + z[2,1]", Q))
    # unmentioned variables untouched; full assignment reduces to constant
    r = q.eval_partial({entry_var(1, 2, 1): Fraction(1), diag_var(2, 1): Fraction(0)})
    assert r.terms == {(): Fraction(2)}


def test_variables():
    p = CPolynomial.parse("x[1,2,1]*z[1,1] + y[1,2]", Q)
    assert p.variables() == {entry_var(1, 2, 1), diag_var(1, 1), out_var(1, 2)}


def test_render_graded_order_stable():
    p = CPolynomial.parse("z[2,1] + z[1,1]*z[2,1] - 3", Q)
    assert p.render() == CPolynomial.parse(p.render(), Q).render()
