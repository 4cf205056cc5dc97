"""Free-algebra polynomials: parsing and scalar evaluation."""

from fractions import Fraction

import pytest

from nc_terms import parts
from utpoly.errors import (ArityMismatch, ConstantTermError, ParseError,
                           VariableOutOfRange)
from utpoly.fields import FieldDescriptor
from utpoly.freealg import NcPolynomial

Q = FieldDescriptor.parse("Q")
F7 = FieldDescriptor.parse("Fp:7")


def P(text, field=Q, nvars=None):
    return NcPolynomial.parse(text, field, nvars)


def test_parse_simple_words():
    p = P("x1*x2 - x2*x1")
    assert p.nvars == 2
    assert p.terms == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}
    # equal parts, whatever the order of p's terms
    again = P("x1*x2 - x2*x1")
    turned = NcPolynomial(Q, 2, dict(reversed(p.terms.items())))
    assert parts(p) == parts(again) == parts(turned)


def test_parse_powers_and_implicit_coefficients():
    p = P("2*x1^3 + x2")
    assert p.terms == {(1, 1, 1): Fraction(2), (2,): Fraction(1)}
    assert P("x1^2").terms == {(1, 1): Fraction(1)}


def test_parse_fraction_coefficients():
    p = P("1/2*x1 - 3/4*x2")
    assert p.terms == {(1,): Fraction(1, 2), (2,): Fraction(-3, 4)}


def test_parse_parenthesized_products():
    p = P("(x1*x2-x2*x1)*(x3*x4-x4*x3)")
    assert list(p.terms.items()) == [
        ((1, 2, 3, 4), 1), ((1, 2, 4, 3), -1), ((2, 1, 3, 4), -1), ((2, 1, 4, 3), 1)]
    assert p.nvars == 4


def test_parse_power_of_parenthesized_group():
    assert list(P("(x1+x2)^2").terms.items()) == [
        ((1, 1), 1), ((1, 2), 1), ((2, 1), 1), ((2, 2), 1)]


def test_parse_cancellation_to_zero():
    assert P("x1 - x1", nvars=1).is_zero()
    assert P("x1*x2 - x1*x2", nvars=2).is_zero()


def test_constant_term_rejected():
    with pytest.raises(ConstantTermError):
        P("x1*x2-x2*x1+1")
    with pytest.raises(ConstantTermError):
        P("1")
    with pytest.raises(ConstantTermError):
        P("x1 + 2 - x1", nvars=1)
    # constants that cancel are fine
    assert parts(P("x1 + 2 - 2", nvars=1)) == parts(P("x1", nvars=1))
    # x^0 introduces a unit factor, not a constant term, when multiplied
    assert parts(P("2*x1^0*x2")) == parts(P("2*x2", nvars=2))


def test_parse_syntax_errors_carry_position():
    for bad in ("x1 +", "*x1", "x1**x2", "x1^", "x0", "y1", "(x1", "x1)"):
        with pytest.raises(ParseError):
            P(bad)


@pytest.mark.parametrize("text", ["x\u00b2", "x\u0663", "\u0663*x1",
                                  "x1^\u0663"])
def test_parse_needs_ascii_digits(text):
    """str.isdigit() takes the superscript 2 and the Arabic-Indic 3;
    polynomial text reads only 0-9 as digits."""
    with pytest.raises(ParseError):
        P(text)


def test_nvars_handling():
    p = P("x3", nvars=5)
    assert p.nvars == 5
    with pytest.raises(VariableOutOfRange):
        P("x3", nvars=2)
    with pytest.raises(VariableOutOfRange):
        NcPolynomial(Q, 1, {(2,): Fraction(1)})


def test_prime_field_coefficients_normalize():
    p = P("8*x1 + 7*x2", F7)
    assert p.terms == {(1,): 1}  # 7*x2 vanishes mod 7
    assert P("x1 + 6*x1", F7, nvars=1).is_zero()


def test_noncommutativity_is_preserved():
    assert parts(P("x1*x2")) != parts(P("x2*x1"))
    assert not P("x1*x2 - x2*x1").is_zero()
    assert P("x1*x1 - x1*x1", nvars=1).is_zero()


def test_degrees():
    p = P("x1*x2*x1 + x2")
    assert p.degree() == 3
    assert NcPolynomial(Q, 2, {}).degree() == 0


def test_eval_scalar():
    p = P("x1*x2 - x2*x1")  # commutative substitution kills commutators
    assert p.eval_scalar([Fraction(3), Fraction(5)]) == Fraction(0)
    q = P("x1^2 + 2*x2")
    assert q.eval_scalar([Fraction(3), Fraction(4)]) == Fraction(17)
    with pytest.raises(ArityMismatch):
        q.eval_scalar([Fraction(1)])

