"""Commutative polynomials over structured variable keys."""

from fractions import Fraction

import pytest

from utpoly.cpoly import CPolynomial, diag_var, entry_var, out_var, render_var
from utpoly.errors import NonLinearVariable, ParseError, UnboundVariable
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
        assert CPolynomial.parse(p.render(), Q) == p


def test_parse_kind_filter():
    CPolynomial.parse("y[1,2]", Q, kinds="y")
    with pytest.raises(ParseError):
        CPolynomial.parse("z[1,1]", Q, kinds="y")


def test_constants_allowed_here():
    p = CPolynomial.parse("3", Q)
    assert p.is_constant() and p.constant_value() == Fraction(3)


def test_arithmetic_and_degree():
    a = CPolynomial.parse("z[1,1] + z[2,1]", Q)
    b = CPolynomial.parse("z[1,1] - z[2,1]", Q)
    prod = a * b
    assert prod == CPolynomial.parse("z[1,1]^2 - z[2,1]^2", Q)
    assert prod.degree() == 2
    assert prod.degree_in(diag_var(1, 1)) == 2
    assert prod.degree_in(diag_var(3, 1)) == 0
    assert (a - a).is_zero()


def test_eval_full_and_unbound():
    p = CPolynomial.parse("x[1,2,1]*z[1,1] + 2", Q)
    v = p.eval_full({entry_var(1, 2, 1): Fraction(3), diag_var(1, 1): Fraction(5)})
    assert v == Fraction(17)
    with pytest.raises(UnboundVariable):
        p.eval_full({entry_var(1, 2, 1): Fraction(3)})


def test_eval_partial():
    p = CPolynomial.parse("x[1,2,1]*z[1,1] + z[2,1]", Q)
    q = p.eval_partial({diag_var(1, 1): Fraction(2)})
    assert q == CPolynomial.parse("2*x[1,2,1] + z[2,1]", Q)
    # unmentioned variables untouched; full assignment reduces to constant
    r = q.eval_partial({entry_var(1, 2, 1): Fraction(1), diag_var(2, 1): Fraction(0)})
    assert r.is_constant() and r.constant_value() == Fraction(2)


def test_coefficient_of_multilinear():
    p = CPolynomial.parse(
        "z[1,1]*x[1,2,1]*x[2,3,2] - x[1,2,1]*x[2,3,2]*z[3,2] + x[1,2,1]", Q)
    c = p.coefficient_of((entry_var(1, 2, 1), entry_var(2, 3, 2)))
    assert c == CPolynomial.parse("z[1,1] - z[3,2]", Q)
    # dividing out one key keeps the other variables in the cofactor;
    # terms lacking the key are dropped
    assert p.coefficient_of((entry_var(1, 2, 1),)) == CPolynomial.parse(
        "1 + x[2,3,2]*z[1,1] - x[2,3,2]*z[3,2]", Q)
    assert p.coefficient_of((entry_var(1, 3, 1),)).is_zero()


def test_coefficient_of_rejects_higher_powers():
    p = CPolynomial.parse("x[1,2,1]^2", Q)
    with pytest.raises(NonLinearVariable):
        p.coefficient_of((entry_var(1, 2, 1),))


def test_rename():
    p = CPolynomial.parse("z[1,1]*z[2,1]", Q)
    shifted = p.rename(lambda key: (key[0], key[1] + 1, key[2]))
    assert shifted == CPolynomial.parse("z[2,1]*z[3,1]", Q)


def test_variables():
    p = CPolynomial.parse("x[1,2,1]*z[1,1] + y[1,2]", Q)
    assert p.variables() == {entry_var(1, 2, 1), diag_var(1, 1), out_var(1, 2)}


def test_render_graded_order_stable():
    p = CPolynomial.parse("z[2,1] + z[1,1]*z[2,1] - 3", Q)
    assert p.render() == CPolynomial.parse(p.render(), Q).render()
