"""Free polynomials built from others, for tests that draw random
factors: the word sum and product kernels of utpoly.fields, with zero
terms filtered after each step by the NcPolynomial constructor.  And
parts, what tests compare polynomials by: the library compares none."""

import operator

from utpoly.fields import add_terms, mul_terms
from utpoly.freealg import NcPolynomial


def plus(a, b):
    """a + b: a's words, then b's new ones."""
    return NcPolynomial(a.field, max(a.nvars, b.nvars),
                        add_terms(a.terms, b.terms, a.field.zero()))


def times(a, b):
    """a * b: each word of a joined with each word of b, in that order."""
    return NcPolynomial(a.field, max(a.nvars, b.nvars),
                        mul_terms(a.terms, b.terms, operator.add))


def bracket(a, b):
    """a*b - b*a."""
    ba = times(b, a)
    return plus(times(a, b),
                NcPolynomial(ba.field, ba.nvars, {w: -c for w, c in ba.terms.items()}))


def parts(p):
    """(class, field, m, term map) of an NcPolynomial or a CPolynomial
    (m None): two polynomials are equal when their parts are, whatever
    the order of their terms."""
    return type(p).__name__, p.field, getattr(p, "nvars", None), p.terms
