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

from . import parsing
from .errors import FieldMismatch, NonLinearVariable, ParseError, UnboundVariable
from .fields import FieldDescriptor, split_sign

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
    __slots__ = ("field", "terms", "_hash")

    def __init__(self, field: FieldDescriptor, terms: dict):
        self.field = field
        self.terms = {m: c for m, c in terms.items() if not field.is_zero(c)}
        self._hash = None

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

    def is_constant(self) -> bool:
        return all(m == EMPTY for m in self.terms)

    def constant_value(self):
        return self.terms.get(EMPTY, self.field.zero())

    def degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def degree_in(self, key: tuple) -> int:
        best = 0
        for m in self.terms:
            for k, e in m:
                if k == key and e > best:
                    best = e
        return best

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

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, tuple(sorted(self.terms.items()))))
        return self._hash

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "CPolynomial"):
        if not self.field.same_field(other.field):
            raise FieldMismatch(f"{self.field.render()} vs {other.field.render()}")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, self.field.zero()) + c
        return CPolynomial(self.field, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CPolynomial(self.field, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                prod = c1 * c2
                if m in terms:
                    terms[m] = terms[m] + prod
                else:
                    terms[m] = prod
        return CPolynomial(self.field, terms)

    def scale(self, c) -> "CPolynomial":
        return CPolynomial(self.field, {m: c * v for m, v in self.terms.items()})

    # -- evaluation ---------------------------------------------------------------

    def eval_full(self, assignment: dict):
        """Evaluate with every variable bound; raises UnboundVariable."""
        acc = self.field.zero()
        for m, c in self.terms.items():
            prod = c
            for key, e in m:
                try:
                    v = assignment[key]
                except KeyError:
                    raise UnboundVariable(render_var(key)) from None
                prod = prod * v ** e
            acc = acc + prod
        return acc

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

    def coefficient_of(self, keys) -> "CPolynomial":
        """Joint coefficient of the product of the given distinct variables.

        Only meaningful when every listed variable appears at most linearly;
        otherwise NonLinearVariable.  Terms missing any of the keys do not
        contribute.  The keys are removed from contributing monomials, so
        the result may still involve other variables.
        """
        wanted = set(keys)
        out = {}
        for m, c in self.terms.items():
            kept, hit = [], 0
            for key, e in m:
                if key in wanted:
                    if e > 1:
                        raise NonLinearVariable(f"{render_var(key)} has degree {e}")
                    hit += 1
                else:
                    kept.append((key, e))
            if hit == len(wanted):
                m2 = tuple(kept)
                out[m2] = out.get(m2, self.field.zero()) + c
        return CPolynomial(self.field, out)

    def rename(self, fn) -> "CPolynomial":
        """Apply fn to every variable key (must stay injective on support)."""
        terms = {}
        for m, c in self.terms.items():
            m2 = tuple(sorted((fn(key), e) for key, e in m))
            terms[m2] = terms.get(m2, self.field.zero()) + c
        return CPolynomial(self.field, terms)

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        def mono_key(m):
            return (sum(e for _, e in m), m)
        pieces = []
        for m in sorted(self.terms, key=mono_key):
            sign, coeff_text = split_sign(self.field, self.terms[m])
            body = "*".join(
                f"{render_var(k)}^{e}" if e > 1 else render_var(k) for k, e in m)
            if not body:
                text = coeff_text or "1"
            else:
                text = f"{coeff_text}*{body}" if coeff_text else body
            if not pieces:
                pieces.append(("-" if sign < 0 else "") + text)
            else:
                pieces.append((" - " if sign < 0 else " + ") + text)
        return "".join(pieces)

    def __repr__(self):
        return f"CPolynomial({self.field.render()}, {self.render()})"


class _CBuilder(parsing.Builder):
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
        return a * b

