"""The lexer and the parser's power rule.

tokenize is checked against a test-local copy of the earlier lexer, a
frozen dataclass per token and a function call per digit test, on a
generated corpus of valid and invalid text: every token, or the
ParseError message and position, must match.  x^e is checked against
the left fold of multiplications it replaces.
"""

import random
import time
from dataclasses import dataclass

import pytest

from nc_terms import parts
from utpoly import cpoly, freealg, parsing
from utpoly.cpoly import CPolynomial
from utpoly.errors import ParseError, ResourceLimit, UtpolyError
from utpoly.fields import FieldDescriptor
from utpoly.freealg import NcPolynomial
from utpoly.parsing import is_digits, tokenize

Q = FieldDescriptor.parse("Q")
F7 = FieldDescriptor.parse("Fp:7")
C = FieldDescriptor.parse("C")


@dataclass(frozen=True)
class ReferenceToken:
    kind: str
    text: str
    pos: int
    payload: object = None


def tokenize_reference(text: str) -> list:
    """The earlier lexer, kept as the reference."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if is_digits(ch):
            j = i
            while j < n and is_digits(text[j]):
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and is_digits(text[j]):
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and is_digits(text[k]):
                    while k < n and is_digits(text[k]):
                        k += 1
                    j = k
            if j < n and text[j] == "j":
                j += 1
            out.append(ReferenceToken("NUMBER", text[i:j], i))
            i = j
            continue
        if ch in "xzy":
            j = i + 1
            if j < n and is_digits(text[j]):
                while j < n and is_digits(text[j]):
                    j += 1
                if ch != "x":
                    raise ParseError(f"unknown variable {text[i:j]!r}", i)
                out.append(ReferenceToken("VAR", text[i:j], i, int(text[i + 1:j])))
                i = j
                continue
            if j < n and text[j] == "[":
                k = text.find("]", j)
                if k < 0:
                    raise ParseError("unterminated variable index", j)
                parts = [s.strip() for s in text[j + 1:k].split(",")]
                if not all(map(is_digits, parts)):
                    raise ParseError(f"bad index list {text[j:k+1]!r}", j)
                idx = tuple(map(int, parts))
                out.append(ReferenceToken("BVAR", text[i:k + 1], i, (ch, idx)))
                i = k + 1
                continue
            raise ParseError(f"dangling variable letter {ch!r}", i)
        if ch in "+-*^/()":
            out.append(ReferenceToken("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(ReferenceToken("END", "", n))
    return out


def outcome(lex, text):
    """(kind, text, pos, payload) per token, or the error's message and
    position."""
    try:
        return [(t.kind, t.text, t.pos, t.payload) for t in lex(text)]
    except ParseError as exc:
        return ("ParseError", str(exc), exc.position)


HAND = [
    "", "   ", "x1*x2 - x2*x1", "3/4*x1^2 + 0.5*x2", "1e5", "1.e", "1.e+", "2E-3j",
    "1.5e3j*x1", "12.", ".5", "7e", "7E+", "3j", "x1e2", " x1 +　x2\t\n",
    "x²", "x٣", "y[1,٣]", "x[1, 2 ,3]", "z[2,1]^3", "y[1,3]", "x[]",
    "x[1,]", "x", "z", "y+", "x1*y", "x[1,2", "y[3", "z2", "y12", "x01", "a", "x1 ! x2",
    "(x1+x2)^17", "x1^-2", "1_0*x1", "١*x1", "x1*²",
]
ALPHABET = ("0123456789" "xyz" "[],." "eEj" "+-*^/()" " \t\n  　"
            "²٣١" "a!_")


def corpus():
    rng = random.Random("tokenize")
    yield from HAND
    for _ in range(3000):
        yield "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 14)))
    pieces = ["x1", "x23", "y[1,2]", "z[3,1]", "x[1,2,3]", "12", "3.5", "1e-3",
              "2.5E+2j", "4/7", "+", "-", "*", "^", "(", ")", " ", " "]
    for _ in range(1000):
        yield "".join(rng.choice(pieces) for _ in range(rng.randint(1, 12)))


def test_tokenize_matches_the_reference_lexer():
    texts = list(corpus())
    for text in texts:
        assert outcome(tokenize, text) == outcome(tokenize_reference, text), text
    errors = sum(isinstance(outcome(tokenize, text), tuple) for text in texts)
    assert 0 < errors < len(texts)


def loop_pow(self, a, e):
    return parsing.power(self.mul, a, e)


POWERS = {
    Q: ["x1^5", "(2*x1*x2)^7", "(1/3*x2*x1)^4", "(x1-x1)^3", "(2)^3*x1", "(x1^2)^3",
        "(x1+x2)^3", "(-x2)^6 - x1^2", "(5/7*x1)^1", "2^3*x1", "3/4^2*x1*2^2"],
    F7: ["(3*x1)^9", "(x1*x2)^6", "(7*x1)^2 + x2", "(6*x1 + x2)^3", "(3)^4*x1",
         "2^3*x1", "x2 - 3^5*x1"],
    C: ["((0.3+0.7j)*x1*x2)^13", "(1e-3*x1)^5", "(0.1*x1)^3", "((1+2j)*x1)^2",
        "(x1 + 1j*x2)^3", "(1.1*x1)^25", "2^3*x1", "1.1^7*x1 + 0.3j^3*x2"],
}


_OPEN_SET_SHARED = ["y[1,2]^5", "(2*y[1,2]*z[1,1])^7", "(3*z[2,1]*y[1,3]^2)^4",
                    "(y[1,2]-y[1,2])^3", "(y[1,2]^2)^3", "(y[1,2]+1)^3", "2^3*y[1,2]",
                    "(2)^3*y[1,2] + 3^5", "(-y[2,3])^6 - y[1,2]^2"]
OPEN_SET_POWERS = {
    Q: _OPEN_SET_SHARED + ["(1/3*z[2,1]*y[1,3]^2)^4", "(5/7*y[1,2])^1"],
    F7: _OPEN_SET_SHARED + ["(7*y[1,2])^2 + y[1,3]", "(1/3*y[1,2]*z[1,1])^9"],
    C: _OPEN_SET_SHARED + ["((0.3+0.7j)*y[1,2]*z[1,1])^13", "(1e-3*y[1,2])^5",
                           "(1.1*y[1,2])^25", "1.1^7*y[1,2] + 0.3j^3*z[1,1]"],
}


@pytest.mark.parametrize("field", [Q, F7, C], ids=["Q", "F7", "C"])
def test_power_equals_the_left_fold(field, monkeypatch):
    """x^e gives the loop's polynomial, in the free parser and in the
    open-set one: its words or monomials, and over C the float bits of
    its coefficients (repr tells them)."""
    for parse, builder, texts in ((NcPolynomial.parse, freealg._FreeBuilder, POWERS),
                                  (CPolynomial.parse, cpoly._CBuilder, OPEN_SET_POWERS)):
        for text in texts[field]:
            got = repr(parse(text, field))
            with monkeypatch.context() as patch:
                patch.setattr(builder, "pow", loop_pow)
                want = repr(parse(text, field))
            assert got == want, text


def test_power_of_one_term_takes_linear_time():
    start = time.perf_counter()
    p = NcPolynomial.parse("x1^20000", Q)
    elapsed = time.perf_counter() - start
    assert p.terms == {(1,) * 20000: 1}
    assert elapsed < 0.3, elapsed


@pytest.mark.parametrize("text,letters", [
    # the fold's product (x1+x2)^12 * (x1+x2): 2 * 49,152 + 4096 * 2
    # letters, where the whole power would build 131,072 words of 2.2 M
    ("(x1+x2)^17", 106_496),
    # a power of one word, which would be built at once
    ("x1^100000000", 10 ** 8),
    # one product, not a power: 1 * 100,000 + 1 * 1
    ("x1^100000*x2", 100_001)])
def test_parser_refuses_a_product_past_its_letter_limit(text, letters):
    """The builder predicts the letters of a product or power before
    any word is built, and refuses past parsing._MAX_LETTERS."""
    limit = parsing._MAX_LETTERS
    start = time.perf_counter()
    with pytest.raises(ResourceLimit) as info:
        NcPolynomial.parse(text, Q)
    assert str(info.value) == (f"a product of {letters} letters before like "
                               f"words merge, past the parser's limit of {limit}")
    assert time.perf_counter() - start < 0.5
    assert len(NcPolynomial.parse(f"x1^{limit}", Q).terms) == 1


@pytest.mark.parametrize("text,letters", [
    # a power of one monomial, whose exponents are multiplied at once
    ("y[1,2]^100000000", 10 ** 8),
    ("(y[1,2]*z[1,1]^2)^40000", 120_000),
    # the fold's product (y[1,2]+1)^316 * (y[1,2]+1): 2 * 50,086 + 317 * 1
    ("(y[1,2]+1)^1000", 100_489),
    # one product, not a power: 1 * 100,000 + 1 * 1
    ("y[1,2]^100000*y[1,3]", 100_001)])
def test_open_set_parser_refuses_a_product_past_its_letter_limit(text, letters):
    """The open-set builder counts a monomial's degree as its letters
    and refuses past parsing._MAX_LETTERS, as the free builder does."""
    limit = parsing._MAX_LETTERS
    with pytest.raises(ResourceLimit) as info:
        CPolynomial.parse(text, Q)
    assert str(info.value) == (f"a product of {letters} letters before like "
                               f"terms merge, past the parser's limit of {limit}")
    power = CPolynomial.parse(f"y[1,2]^{limit}", Q)
    assert max(sum(e for _, e in m) for m in power.terms) == limit


class PerOperationBuilder:
    """The earlier open-set builder, kept as the reference: every value it
    makes is a polynomial whose zero terms (within eps over C) are
    dropped, after each operation.  dropped counts the terms dropped."""

    def __init__(self, field):
        self.field = field
        self.var = cpoly._CBuilder(field, "xzy").var
        self.dropped = 0

    def clean(self, terms):
        out = {m: v for m, c in terms.items() if (v := self.field.nonzero(c)) is not None}
        self.dropped += len(terms) - len(out)
        return out

    def const(self, text):
        return self.clean({(): self.field.parse_literal(text)})

    def add(self, a, b):
        terms = dict(a)
        for m, c in b.items():
            terms[m] = terms.get(m, self.field.zero()) + c
        return self.clean(terms)

    def neg(self, a):
        return self.clean({m: -c for m, c in a.items()})

    def mul(self, a, b):
        terms = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = cpoly._mono_mul(m1, m2)
                terms[m] = terms[m] + c1 * c2 if m in terms else c1 * c2
        return self.clean(terms)

    def pow(self, a, e):
        if len(a) != 1:
            return parsing.power(self.mul, a, e)
        (m, c), = a.items()
        return self.clean({tuple((key, k * e) for key, k in m): self.field.power(c, e)})


_OPEN_SET_ATOMS = ["y[1,2]", "y[1,3]", "y[2,3]", "z[1,1]", "x[1,2,1]"]
_OPEN_SET_NUMBERS = {"exact": ["1", "2", "3", "5", "2/3", "7/3", "1/7"],
                     "complex": ["1", "2", "0.5", "1.5", "0.3", "2j", "0.7j", "1e-3"]}


def open_set_text(rng, numbers, depth=0):
    """A random sum of products of powers of variables, numbers and
    bracketed sums, nested at most two deep; some sums cancel a term."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.25 and depth < 2:
                atom = f"({open_set_text(rng, numbers, depth + 1)})"
            elif roll < 0.45:
                atom = rng.choice(numbers)
            else:
                atom = rng.choice(_OPEN_SET_ATOMS)
            if rng.random() < 0.25:
                atom = f"{atom}^{rng.randint(1, 3 if atom[0] != '(' else 2)}"
            factors.append(atom)
        terms.append("*".join(factors))
    text = terms[0] + "".join(f" {rng.choice('+-')} {term}" for term in terms[1:])
    if rng.random() < 0.3:
        # a term cancels, and may come back
        again = rng.choice(terms)
        text = f"{again} + {text} - {again}" + (f" + {again}" if rng.random() < 0.5 else "")
    return ("-" if rng.random() < 0.2 else "") + text


@pytest.mark.parametrize("spec", ["Q", "Fp:2", "Fp:101", "C"])
def test_open_set_parse_matches_the_per_operation_builder(spec):
    """The open-set parser builds the text's term map and drops its zeros
    once.  Over Q and F_p it gives the polynomial of the earlier builder,
    which dropped them after each operation.  Over C, on the texts where
    that builder dropped no term, it gives its terms in the same order
    with the same float bits."""
    field = FieldDescriptor.parse(spec)
    numbers = _OPEN_SET_NUMBERS["complex" if field.kind == "complex" else "exact"]
    rng = random.Random(spec)
    compared = cancelled = 0
    for _ in range(400):
        text = open_set_text(rng, numbers)
        got = CPolynomial.parse(text, field)
        reference = PerOperationBuilder(field)
        want = CPolynomial(field, parsing.parse_text(text, reference))
        cancelled += reference.dropped > 0
        if field.kind == "complex":
            if reference.dropped:
                continue
            assert [(m, c.real.hex(), c.imag.hex()) for m, c in got.terms.items()] == \
                [(m, c.real.hex(), c.imag.hex()) for m, c in want.terms.items()], text
        assert parts(got) == parts(want), text
        compared += 1
    assert compared >= 200 and cancelled >= 20, (compared, cancelled)


@pytest.mark.parametrize("field,text,same", [
    (field, text, same) for field in (Q, F7, C) for text, same in [
        ("2^3*x1", "(2)^3*x1"), ("2^0*x1", "x1"), ("5*2^2*x1", "20*x1"),
        ("x2 - 2^2*x1^2", "x2 - (2)^2*(x1)^2")]
] + [(Q, "3/4^2*x1", "9/16*x1"), (F7, "3/4^2*x1", "(3/4)^2*x1")])
def test_a_number_is_a_factor(field, text, same):
    """A coefficient takes a power like any atom: term := factor ('*'
    factor)*, with the polynomial, and over C the float bits, of the
    parenthesised form."""
    assert repr(NcPolynomial.parse(text, field)) == repr(NcPolynomial.parse(same, field))


class _NumberFirstParser(parsing._Parser):
    """The earlier parser, whose term read a leading number as a
    coefficient with no power: term := coeff | [coeff '*'] factor ..."""

    def term(self):
        if self.peek().kind == "NUMBER":
            c = self.coeff()
            if not self.at_op("*"):
                return self.b.const(c)
            node = self.b.const(c)
        else:
            node = self.factor()
        while self.at_op("*"):
            self.take()
            node = self.b.mul(node, self.factor())
        return node


def parsed(text):
    """The polynomial, or the error's type, message and position."""
    try:
        return repr(NcPolynomial.parse(text, Q))
    except UtpolyError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "position", None))


def test_only_texts_refused_before_parse_otherwise(monkeypatch):
    """On the lexer corpus, every text the earlier parser took gives the
    same outcome, and so does every text it refused anywhere but at a
    '^' after a number: such a text now parses, or is refused further
    on."""
    changed = parses = 0
    for text in [*corpus(), "2^3*x1", "x2 - 3/4^2*x1", "(2^2*x1)^2 + x1*5^3"]:
        got = parsed(text)
        with monkeypatch.context() as patch:
            patch.setattr(parsing, "_Parser", _NumberFirstParser)
            want = parsed(text)
        if got != want:
            assert want[0] == "ParseError" and text[want[2]] == "^", text
            changed += 1
            parses += isinstance(got, str)
    assert 0 < parses < changed
    for text in ["2 x1", "2/x", "2/x1", "2^x1", "2^-1*x1", "x1*2^"]:
        assert parsed(text)[0] == "ParseError", text
