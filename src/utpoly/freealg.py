"""Noncommutative polynomials with zero constant term.

Monomials are words over x1..xm, stored as tuples of 1-based variable
indices; a polynomial is a sparse map from words to nonzero coefficients.
The empty word (a constant term) is rejected at construction since every
operation downstream assumes it is absent.  A polynomial comes from text
(parse, shared_parse) or from a term map; it has no arithmetic of its own.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from . import parsing
from .errors import ArityMismatch, ConstantTermError, ParseError, VariableOutOfRange
from .fields import FieldDescriptor, TermBuilder


class NcPolynomial:
    """terms maps each word to its nonzero coefficient.  index holds the
    live-slot index by k (triangular.live_slots), empty at construction
    and filled on first use: always built from this instance's words in
    this terms order, which over C sets its float bits."""

    __slots__ = ("field", "nvars", "terms", "index")

    def __init__(self, field: FieldDescriptor, nvars: int, terms: dict):
        clean = {}
        nonzero = field.nonzero
        for word, coeff in terms.items():
            coeff = nonzero(coeff)
            if len(word) == 0:
                if coeff is not None:
                    raise ConstantTermError("nonzero constant term")
                continue
            for i in word:
                if not (1 <= i <= nvars):
                    raise VariableOutOfRange(f"x{i} outside x1..x{nvars}")
            if coeff is not None:
                clean[tuple(word)] = coeff
        self.field = field
        self.nvars = nvars
        self.terms = clean
        self.index = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, text: str, field: FieldDescriptor, nvars: int | None = None) -> "NcPolynomial":
        builder = _FreeBuilder(field)
        raw = parsing.parse_text(text, builder)
        const = field.nonzero(raw.pop((), field.zero()))
        if const is not None:
            raise ConstantTermError(
                f"polynomial has constant term {field.render_value(const)}")
        m = builder.max_index if nvars is None else nvars
        if nvars is not None and builder.max_index > nvars:
            raise VariableOutOfRange(
                f"x{builder.max_index} outside declared x1..x{nvars}")
        return cls(field, m, raw)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    # -- evaluation -----------------------------------------------------------

    def eval_scalar(self, point):
        """Evaluate at a tuple of values of the field (commutative case)."""
        if len(point) != self.nvars:
            raise ArityMismatch(f"expected {self.nvars} values, got {len(point)}")
        acc = self.field.zero()
        for word, coeff in self.terms.items():
            prod = coeff
            for i in word:
                prod = prod * point[i - 1]
            acc = acc + prod
        return self.field.canonical(acc)

    def __repr__(self):
        return f"NcPolynomial({self.field.render()}, m={self.nvars}, {self.terms!r})"


# 40 witness rounds (1800 requests, 363 polynomials) parsed, and built an
# index, 400, 389, 374, 372 and 368 times at caps 8, 16, 20, 32 and 64
@lru_cache(maxsize=32)
def shared_parse(text: str, field: FieldDescriptor, nvars: int | None) -> NcPolynomial:
    """NcPolynomial.parse, one instance per recent (text, field, nvars):
    a request repeating a text reads the index its polynomial has built."""
    return NcPolynomial.parse(text, field, nvars)


class _FreeBuilder(TermBuilder):
    """Term maps keyed by words, a word's letters its length."""

    like = "words"
    join = operator.add
    letters = len

    def __init__(self, field: FieldDescriptor):
        super().__init__(field)
        self.max_index = 0

    def var(self, token: parsing.Token):
        if token.kind != "VAR":
            raise ParseError(f"{token.text!r} is not a free variable", token.pos)
        i = token.payload
        if i < 1:
            raise ParseError("variable indices start at 1", token.pos)
        self.max_index = max(self.max_index, i)
        return {(i,): self.field.one()}

    @staticmethod
    def key_power(word: tuple, e: int) -> tuple:
        # a number's word is (), and () * e overflows past sys.maxsize
        return word * e if word else ()
