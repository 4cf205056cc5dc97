"""Sparse commutative polynomials over tagged matrix-entry variables.

Generic upper triangular matrices expand into three variable kinds:

    ("x", j, k, i)  strictly upper entry (j,k) of the i-th matrix
    ("z", j, i)     diagonal entry j of the i-th matrix
    ("y", s, t)     output coordinate (s,t), used for open-set conditions

Keys are plain tuples so they sort and hash naturally.  A monomial is a
tuple of (key, exponent) pairs sorted by key; a polynomial maps monomials
to nonzero coefficients.  Unlike the free algebra, constants are allowed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import parsing
from .errors import FieldMismatch, ParseError, ResourceLimit, UnboundVariable
from .fields import FieldDescriptor, add_terms, mul_terms, render_terms

EMPTY = ()


def entry_var(j: int, k: int, i: int) -> tuple:
    if not (1 <= j < k):
        raise ValueError(f"entry variable needs 1 <= j < k, got ({j},{k})")
    return ("x", j, k, i)


def diag_var(j: int, i: int) -> tuple:
    if j < 1 or i < 1:
        raise ValueError(f"diagonal variable needs positive indices, got ({j},{i})")
    return ("z", j, i)


def out_var(s: int, t: int) -> tuple:
    if not (1 <= s <= t):
        raise ValueError(f"output variable needs 1 <= s <= t, got ({s},{t})")
    return ("y", s, t)


# the same few keys recur (20 symbolic bench rounds: 26,937 calls, 104
# keys); without the cache, symbolic bench requests took 1.2-3.1 % longer
@lru_cache(maxsize=8192)
def render_var(key: tuple) -> str:
    return f"{key[0]}[{','.join(str(i) for i in key[1:])}]"


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for key, e in m2:
        merged[key] = merged.get(key, 0) + e
    return tuple(sorted(merged.items()))


class CPolynomial:
    __slots__ = ("field", "terms")

    def __init__(self, field: FieldDescriptor, terms: dict):
        self.field = field
        nonzero = field.nonzero
        self.terms = {m: v for m, c in terms.items()
                      if (v := nonzero(c)) is not None}

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldDescriptor) -> "CPolynomial":
        return cls(field, {})

    @classmethod
    def const(cls, field: FieldDescriptor, c) -> "CPolynomial":
        return cls(field, {EMPTY: c})

    @classmethod
    def variable(cls, field: FieldDescriptor, key: tuple) -> "CPolynomial":
        return cls(field, {((key, 1),): field.one()})

    @classmethod
    def parse(cls, text: str, field: FieldDescriptor, kinds: str = "xzy") -> "CPolynomial":
        return parsing.parse_text(text, _CBuilder(field, kinds))

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for k, _ in m:
                out.add(k)
        return out

    def __eq__(self, other):
        if not isinstance(other, CPolynomial):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "CPolynomial"):
        if not self.field.same_field(other.field):
            raise FieldMismatch(f"{self.field.render()} vs {other.field.render()}")

    def __add__(self, other):
        self._check(other)
        return CPolynomial(self.field,
                           add_terms(self.terms, other.terms, self.field.zero()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CPolynomial(self.field, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        return CPolynomial(self.field,
                           mul_terms(self.terms, other.terms, _mono_mul))

    # -- evaluation ---------------------------------------------------------------

    def eval_full(self, assignment: dict):
        """Evaluate with every variable bound to a value of the field;
        raises UnboundVariable, and ResourceLimit for a power over C past
        the float range.  Over Q the sum runs on integers: each
        term's numerator and denominator are products of ints, the terms
        are added over the lcm of their denominators, and one Fraction
        is built at the end, equal to the term-by-term Fraction sum."""
        if self.field.kind == "rational":
            return self._eval_rational(assignment)
        acc = self.field.zero()
        for m, c in self.terms.items():
            prod = c
            for key, e in m:
                try:
                    prod = prod * assignment[key] ** e
                except KeyError:
                    raise UnboundVariable(render_var(key)) from None
                except OverflowError:
                    raise ResourceLimit("a power over C is past the float range") from None
            acc = acc + prod
        return self.field.canonical(acc)

    def _eval_rational(self, assignment: dict) -> Fraction:
        num, den = 0, 1
        for m, c in self.terms.items():
            a, b = c.numerator, c.denominator
            for key, e in m:
                try:
                    v = assignment[key]
                except KeyError:
                    raise UnboundVariable(render_var(key)) from None
                a *= v.numerator ** e
                b *= v.denominator ** e
            g = gcd(b, den)
            num = num * (b // g) + a * (den // g)
            den = den // g * b
        return Fraction(num, den)

    def eval_partial(self, assignment: dict) -> "CPolynomial":
        """Substitute the given variables, keep the rest symbolic."""
        terms = {}
        for m, c in self.terms.items():
            kept = []
            for key, e in m:
                if key in assignment:
                    c = c * assignment[key] ** e
                else:
                    kept.append((key, e))
            m2 = tuple(kept)
            terms[m2] = terms.get(m2, self.field.zero()) + c
        return CPolynomial(self.field, terms)

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        # terms by degree, then monomial; a monomial sorts as its pairs' ranks
        pairs = sorted({pair for m in self.terms for pair in m})
        rank = {pair: r for r, pair in enumerate(pairs)}
        texts = [f"{render_var(k)}^{e}" if e > 1 else render_var(k) for k, e in pairs]
        exps = [e for _, e in pairs]
        ranked = {tuple(map(rank.__getitem__, m)): c for m, c in self.terms.items()}
        order = sorted(sorted(ranked), key=lambda r: sum(map(exps.__getitem__, r)))
        return render_terms(self.field, (("*".join(map(texts.__getitem__, r)), ranked[r])
                                         for r in order))

    def __repr__(self):
        return f"CPolynomial({self.field.render()}, {self.render()})"


class _CBuilder:
    def __init__(self, field: FieldDescriptor, kinds: str):
        self.field = field
        self.kinds = kinds

    def const(self, text: str):
        return CPolynomial.const(self.field, self.field.parse_literal(text))

    def var(self, token: parsing.Token):
        if token.kind != "BVAR":
            raise ParseError(f"{token.text!r}: expected an indexed variable "
                             f"like y[1,3]", token.pos)
        letter, idx = token.payload
        if letter not in self.kinds:
            raise ParseError(f"variable kind {letter!r} not allowed here", token.pos)
        try:
            if letter == "x":
                key = entry_var(*idx)
            elif letter == "z":
                key = diag_var(*idx)
            else:
                key = out_var(*idx)
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc), token.pos) from None
        return CPolynomial.variable(self.field, key)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        parsing._check_letters(len(b.terms) * _letters(a) + len(a.terms) * _letters(b),
                               "terms")
        return a * b

    def pow(self, a, e):
        """a^e, equal to parsing.power(self.mul, a, e) at rest: a single
        term's exponents are multiplied by e, and its coefficient's power
        taken by FieldDescriptor.power."""
        if len(a.terms) != 1:
            return parsing.power(self.mul, a, e)
        (m, c), = a.terms.items()
        parsing._check_letters(_letters(a) * e, "terms")
        return CPolynomial(self.field, {tuple((key, k * e) for key, k in m):
                                        self.field.power(c, e)})


def _letters(a: CPolynomial) -> int:
    """The letters of a's monomials, each monomial's being its degree."""
    return sum(k for m in a.terms for _, k in m)

