"""Shared lexer and recursive-descent engine for polynomial text.

Grammar (sums of scaled products):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' nat]
    atom   := var | coeff | '(' expr ')'
    coeff  := number ['/' number]

A coefficient is one atom, so 2^3*x1 is 8*x1 and 3/4^2*x1 is 9/16*x1.

Variables come in two shapes: a letter with a numeric suffix (x1, x12)
and a bracketed form with integer indices (x[1,2,3], z[2,1], y[1,3]).
Numbers, suffixes and indices are written in the ASCII digits 0-9 only:
other Unicode digits (x², x٣) are refused, not read as numbers.
tokenize makes one Token, a __slots__ object, per lexeme and tests
single characters against a frozenset of those digits; is_digits tests
a run (an index here, a literal in cli and fields).  A power x^e is the
builder's pow, equal to the left fold ((x*x)*x)... of its mul.
The engine is shared by the free-algebra parser and the structured
coefficient-polynomial parser: each builds the text's term map with a
subclass of fields.TermBuilder, whose var decides which variable shapes
are legal (see parse_text).  The builder refuses a product or power
whose monomials would hold more than _MAX_LETTERS letters before like
ones merge (_check_letters).
"""

from __future__ import annotations

from .errors import ParseError, ResourceLimit


def is_digits(text: str) -> bool:
    """True for a nonempty run of the ASCII digits 0-9."""
    return text.isascii() and text.isdigit()


_DIGITS = frozenset("0123456789")


class Token:
    """A token: kind is NUMBER, VAR, BVAR, OP or END; payload is a VAR's
    index or a BVAR's (letter, indices)."""

    __slots__ = ("kind", "text", "pos", "payload")

    def __init__(self, kind: str, text: str, pos: int, payload: object = None):
        self.kind = kind
        self.text = text
        self.pos = pos
        self.payload = payload


def tokenize(text: str) -> list[Token]:
    digits = _DIGITS
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "+-*^/()":
            out.append(Token("OP", ch, i))
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if ch in digits:
            j = i + 1
            while j < n and text[j] in digits:
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j] in digits:
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in digits:
                    while k < n and text[k] in digits:
                        k += 1
                    j = k
            if j < n and text[j] == "j":
                j += 1
            out.append(Token("NUMBER", text[i:j], i))
            i = j
            continue
        if ch in "xzy":
            j = i + 1
            if j < n and text[j] in digits:
                while j < n and text[j] in digits:
                    j += 1
                if ch != "x":
                    raise ParseError(f"unknown variable {text[i:j]!r}", i)
                out.append(Token("VAR", text[i:j], i, int(text[i + 1:j])))
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
                out.append(Token("BVAR", text[i:k + 1], i, (ch, idx)))
                i = k + 1
                continue
            raise ParseError(f"dangling variable letter {ch!r}", i)
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(Token("END", "", n))
    return out


class _Parser:
    def __init__(self, tokens: list[Token], builder):
        self.toks = tokens
        self.i = 0
        self.b = builder

    def peek(self) -> Token:
        return self.toks[self.i]

    def take(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def at_op(self, chars: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text in chars

    def expect_op(self, ch: str) -> Token:
        tok = self.take()
        if tok.kind != "OP" or tok.text != ch:
            raise ParseError(f"expected {ch!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self):
        negate = False
        if self.at_op("+-"):
            negate = self.take().text == "-"
        node = self.term()
        if negate:
            node = self.b.neg(node)
        while self.at_op("+-"):
            op = self.take().text
            rhs = self.term()
            node = self.b.add(node, self.b.neg(rhs) if op == "-" else rhs)
        return node

    def term(self):
        node = self.factor()
        while self.at_op("*"):
            self.take()
            node = self.b.mul(node, self.factor())
        return node

    def coeff(self) -> str:
        """The literal text of the NUMBER token next, with its '/' part."""
        tok = self.take()
        if self.at_op("/"):
            self.take()
            den = self.take()
            if den.kind != "NUMBER" or not is_digits(den.text) or not is_digits(tok.text):
                raise ParseError("fraction parts must be integers", den.pos)
            return tok.text + "/" + den.text
        return tok.text

    def factor(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "(":
            self.take()
            node = self.expr()
            self.expect_op(")")
        elif tok.kind in ("VAR", "BVAR"):
            node = self.b.var(self.take())
        elif tok.kind == "NUMBER":
            node = self.b.const(self.coeff())
        else:
            raise ParseError(f"expected a variable, number, or '(', found "
                             f"{tok.text or 'end of input'!r}", tok.pos)
        if self.at_op("^"):
            self.take()
            etok = self.take()
            if etok.kind != "NUMBER" or not is_digits(etok.text):
                raise ParseError("exponent must be a nonnegative integer", etok.pos)
            e = int(etok.text)
            if e == 0:
                return self.b.const("1")
            node = self.b.pow(node, e)
        return node


def power(mul, a, e: int):
    """a^e, e >= 1, as the left fold ((a*a)*a)... of mul."""
    acc = a
    for _ in range(e - 1):
        acc = mul(acc, a)
    return acc


# the most letters the monomials of one product or power may hold before
# like ones merge, a monomial's letters being its degree: (x1+x2)^17
# would build 131,072 words of 2.2 M letters, which took 6.3 s and 60 MB
# in eval; the golden corpus's largest product holds 56
_MAX_LETTERS = 10 ** 5


def _check_letters(letters: int, like: str) -> None:
    """ResourceLimit past _MAX_LETTERS; like names the builder's
    monomials in the message ("words", "terms")."""
    if letters > _MAX_LETTERS:
        raise ResourceLimit(f"a product of {letters} letters before like {like} "
                            f"merge, past the parser's limit of {_MAX_LETTERS}")


def parse_text(text: str, builder):
    """text parsed into the builder's values.  The builder provides
    const(text) for a number literal, var(token) for a VAR or BVAR token,
    add(a, b), neg(a), mul(a, b) and pow(a, e) for e >= 1, whose value
    must be that of power(mul, a, e); each may raise ParseError."""
    return _Parser(tokenize(text), builder).parse()
