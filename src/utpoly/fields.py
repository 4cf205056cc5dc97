"""Coefficient fields: exact rationals, prime fields, approximate complex.

Values are plain Python numbers with operator arithmetic:
fractions.Fraction over Q, complex over C, and int over F_p.  An F_p
value at rest (stored in a matrix or polynomial, returned by an
evaluation, rendered, hashed) is its residue in [0, p); only a running
sum inside one loop may leave that range.  A bare int does not know its
modulus, so the objects that carry a field (matrices, polynomials)
refuse to meet one over another field, and a function that takes bare
values wants them in its polynomial's field.  The FieldDescriptor owns
that format and is the one place that reduces mod p: it names the field,
parses and renders element literals, samples random elements,
canonicalises, divides and raises values to powers, and solves
univariate equations.  It alone defines a value's zero: nonzero is the
zero filter of every sparse container, and two values are equal when
their difference does not pass it.  Complex is an approximate stand-in
for an algebraically closed field: equality there means agreement
within eps.
The sparse-polynomial helpers of the free and commutative kinds, sum,
product, text and parser builder (add_terms, mul_terms, render_terms,
TermBuilder), live here too.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .errors import NoRootInField, NonConvergence, ParseError, ResourceLimit
from .parsing import _check_letters, is_digits, power as left_fold

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least composite that is a strong probable prime to every
# base above (Sorenson and Webster 2015); Fp: refuses it and larger moduli
_PSI_13 = 3317044064679887385961981
_DK_RESTARTS = 5      # Durand-Kerner runs before NonConvergence
_DK_ITERS = 500       # iterations per run
# primes whose residues sieve out rootless polynomials over Q; a literal,
# so that nothing runs at import time
_SIEVE_PRIMES = (3, 5, 7, 11, 13, 17)
# a number has no letters, so the parser's letter limit does not bound
# its power.  Over Q the bound is on the power's bits (order, classify and
# coeffs on a coefficient of 10^6 bits take about 0.2 s), over C on the
# exponent of its fold
_MAX_POWER_BITS = 10 ** 6
_MAX_POWER_FOLD = 10 ** 6


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the prime bases 2..41, exact for
    n < psi_13 = 3317044064679887385961981 (_PSI_13).  The bases 2..37
    alone are exact only below psi_12 = 318665857834031151167461, a
    product of two primes that passes all of them."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    """Identifies a coefficient field and centralizes element handling.

    kind is one of "rational", "prime", "complex".  eps only matters for
    complex.  It takes part in equality and hashing, so caches keyed on a
    polynomial never mix tolerances; descriptors that differ only in
    tolerance still interoperate through same_field.
    """

    kind: str
    p: int | None = None
    eps: float = 1e-9

    def __post_init__(self):
        # elements are immutable: one zero and one one per descriptor
        object.__setattr__(self, "_zero", self.from_int(0))
        object.__setattr__(self, "_one", self.from_int(1))

    @classmethod
    def parse(cls, text: str) -> "FieldDescriptor":
        text = text.strip()
        if text == "Q":
            return cls("rational")
        if text.startswith("Fp:"):
            body = text[3:]
            if not is_digits(body):
                raise ParseError(f"bad prime field descriptor {text!r}")
            # checked before int(), which refuses a run of digits past
            # Python's int-string limit
            digits = body.lstrip("0") or "0"
            if len(digits) > len(str(_PSI_13)):
                raise ParseError(f"modulus of {len(digits)} digits is too large: "
                                 f"primality is certified only below {_PSI_13}")
            p = int(digits)
            if p >= _PSI_13:
                raise ParseError(f"modulus {p} is too large: primality is "
                                 f"certified only below {_PSI_13}")
            if not is_prime(p):
                raise ParseError(f"{p} is not prime")
            return cls("prime", p=p)
        if text == "C":
            return cls("complex")
        if text.startswith("C:"):
            try:
                eps = float(text[2:])
            except ValueError:
                raise ParseError(f"bad tolerance in field descriptor {text!r}") from None
            if not 0 < eps < math.inf:
                raise ParseError(f"tolerance must be positive and finite in {text!r}")
            return cls("complex", eps=eps)
        raise ParseError(f"unknown field descriptor {text!r}")

    def render(self) -> str:
        if self.kind == "rational":
            return "Q"
        if self.kind == "prime":
            return f"Fp:{self.p}"
        if self.eps != 1e-9:
            return f"C:{self.eps:g}"
        return "C"

    # -- element construction -------------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, k: int):
        if self.kind == "rational":
            return Fraction(k)
        if self.kind == "prime":
            return k % self.p
        return complex(k)

    def from_fraction(self, q: Fraction):
        if self.kind == "rational":
            return q
        if self.kind == "prime":
            if q.denominator % self.p == 0:
                raise ParseError(f"denominator {q.denominator} not invertible mod {self.p}")
            return self.div(q.numerator, q.denominator)
        return complex(q.numerator / q.denominator)

    def parse_literal(self, text: str):
        text = text.strip()
        # complex(), Fraction() and int() would also read "1_0" and
        # non-ASCII digits such as "\u0663"
        if not text.isascii() or "_" in text:
            raise ParseError(f"bad literal {text!r}: use ASCII digits")
        if self.kind == "complex":
            try:
                if cmath.isfinite(v := complex(text)):
                    return v
            except ValueError:
                pass
            raise ParseError(f"bad complex literal {text!r}")
        try:
            if "/" in text:
                num, _, den = text.partition("/")
                q = Fraction(int(num), int(den))
            else:
                q = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(_bad_literal(text)) from None
        return self.from_fraction(q)

    def render_value(self, v) -> str:
        if self.kind == "prime":
            return str(v)
        if self.kind == "complex":
            return repr(v).strip("()")
        return _rational_text(*v.as_integer_ratio())

    # -- predicates ------------------------------------------------------

    def is_zero(self, v) -> bool:
        """Whether v is zero in the field; an F_p int need not be reduced."""
        return self.nonzero(v) is None

    # -- canonical form -----------------------------------------------------

    def canonical(self, v):
        """v at rest: the residue in [0, p) of an F_p int; Q and C values
        are their own canonical form."""
        return v % self.p if self.kind == "prime" else v

    def nonzero(self, v):
        """canonical(v), or None when v is zero in the field (within eps
        over C): the zero filter of every sparse container, one call per
        term as is_zero would be."""
        if self.kind == "prime":
            return v % self.p or None
        if self.kind == "complex":
            return None if abs(v) <= self.eps else v
        return None if v == 0 else v

    def div(self, a, b):
        """a / b in canonical form; ZeroDivisionError when b is zero."""
        if self.kind == "prime":
            if b % self.p == 0:
                raise ZeroDivisionError("inverse of zero in F_p")
            return a * pow(b, -1, self.p) % self.p
        return a / b

    def power(self, c, e: int):
        """c^e, e >= 1, equal at rest to parsing.power(operator.mul, c, e):
        pow mod p over F_p, an exact ** over Q, and over C the left fold
        itself, which sets the float bits; ResourceLimit past
        _MAX_POWER_BITS over Q or _MAX_POWER_FOLD over C."""
        if self.kind == "prime":
            return pow(c, e, self.p)
        if self.kind == "rational":
            # c^e has about e log2(base) bits, so at least e when base > 1,
            # which bounds an e too large for a float product; 0, 1 and -1
            # keep their size
            base = max(abs(c.numerator), c.denominator)
            if base > 1:
                bits = e if e > _MAX_POWER_BITS else int(e * math.log2(base))
                if bits > _MAX_POWER_BITS:
                    raise ResourceLimit(f"a coefficient's power of at least {bits} "
                                        f"bits, past the parser's limit of {_MAX_POWER_BITS}")
            return c ** e
        if e > _MAX_POWER_FOLD:
            raise ResourceLimit(f"a coefficient's power of exponent {e}, past the "
                                f"parser's limit of {_MAX_POWER_FOLD}")
        return left_fold(operator.mul, c, e)

    def same_field(self, other: "FieldDescriptor") -> bool:
        return self.kind == other.kind and self.p == other.p

    # -- sampling ----------------------------------------------------------

    def sample(self, rng, height: int = 256):
        """Random element.  For rationals the support has ~0.6*2*height^2
        distinct values, so the default height keeps it above 2^16."""
        if self.kind == "rational":
            return Fraction(rng.randint(-height, height), rng.randint(1, height))
        if self.kind == "prime":
            return rng.randrange(self.p)
        return complex(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0))


# the most digits Python converts between int and text, 0 for no limit:
# read at each use, never set (Pythons before 3.10.7 have no limit)
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _bad_literal(text: str) -> str:
    """The message for a literal int() or Fraction() refused."""
    what = "bad fraction literal" if "/" in text else "bad literal"
    limit = _digit_limit()
    longest = max(map(len, re.findall("[0-9]+", text)), default=0)
    if limit and longest > limit:
        return (f"{what}: {longest} digits in a row, past Python's "
                f"{limit}-digit int-string conversion limit")
    return f"{what} {text!r}"


def _rational_text(num: int, den: int) -> str:
    """str(Fraction(num, den)), the one way a Q value becomes text, or
    ResourceLimit, before any text is built, for a part past _digit_limit."""
    limit, big = _digit_limit(), max(abs(num), den)
    # an int of at most 3 * limit bits is below 8**limit < 10**limit
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise ResourceLimit(f"a value with more than {limit} digits, past "
                            f"Python's int-string conversion limit")
    return str(num) if den == 1 else f"{num}/{den}"


def split_sign(desc: FieldDescriptor, c):
    """Split a coefficient into (sign, magnitude text) for term rendering.

    An empty magnitude means 1, so callers can drop the '*'.  Prime-field
    values and complex values with nonzero real and imaginary parts never
    get a minus pulled out.
    """
    if desc.kind == "rational":
        num, den = c.as_integer_ratio()    # in lowest terms: |num| == den only for 1
        mag = abs(num)
        return -1 if num < 0 else 1, "" if mag == den else _rational_text(mag, den)
    if desc.kind == "prime":
        return 1, "" if c == 1 else str(c)
    if c.imag == 0:
        mag = abs(c.real)
        return -1 if c.real < 0 else 1, "" if mag == 1 else repr(mag)
    if c.real == 0:
        return -1 if c.imag < 0 else 1, f"{abs(c.imag)!r}j"
    return 1, f"({c.real!r}{'+' if c.imag > 0 else '-'}{abs(c.imag)!r}j)"


# -- sparse polynomials as {key: coefficient} maps ------------------------


def add_terms(a: dict, b: dict, zero) -> dict:
    """Sum, terms in a's order then b's new keys: over C that order is
    the summation order downstream.  Cancelled terms stay in."""
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, zero) + c
    return out


def mul_terms(a: dict, b: dict, join) -> dict:
    """join multiplies two keys: word concatenation, monomial merge."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = join(k1, k2)
            prod = c1 * c2
            out[key] = out[key] + prod if key in out else prod
    return out


class TermBuilder:
    """parsing.parse_text's builder of {key: coefficient} maps, () the
    constant key.  A kind's subclass gives var(token), its key rules
    join(k1, k2), letters(key) and key_power(key, e), and like, its keys'
    name in the letter guard's message.  Cancelled terms stay in
    (add_terms): the polynomial's constructor drops the zeros once."""

    def __init__(self, field: FieldDescriptor):
        self.field = field

    def const(self, text: str) -> dict:
        return {(): self.field.parse_literal(text)}

    def add(self, a: dict, b: dict) -> dict:
        return add_terms(a, b, self.field.zero())

    def neg(self, a: dict) -> dict:
        return {key: -c for key, c in a.items()}

    def mul(self, a: dict, b: dict) -> dict:
        letters = self.letters
        _check_letters(len(b) * sum(map(letters, a)) + len(a) * sum(map(letters, b)),
                       self.like)
        return mul_terms(a, b, self.join)

    def pow(self, a: dict, e: int) -> dict:
        """a^e, equal at rest to parsing.power(self.mul, a, e): a single
        term's key and coefficient (FieldDescriptor.power) raised at once."""
        if len(a) != 1:
            return left_fold(self.mul, a, e)
        (key, c), = a.items()
        _check_letters(self.letters(key) * e, self.like)
        return {self.key_power(key, e): self.field.power(c, e)}


def render_terms(desc: FieldDescriptor, items) -> str:
    """Text of the (body, coefficient) pairs in items, in order, e.g.
    '3*x1 - x2 + 1'; an empty body is a constant term, no pair is '0'."""
    pieces = []
    for body, c in items:
        sign, mag = split_sign(desc, c)
        pieces.append(" - " if sign < 0 else " + ")
        pieces.append(f"{mag}*{body}" if mag and body else mag or body or "1")
    if not pieces:
        return "0"
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


# -- univariate root finding ---------------------------------------------


def _horner(coeffs, u):
    acc = None
    for c in reversed(coeffs):
        acc = c if acc is None else acc * u + c
    return acc


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b in Q[u];
    ascending int lists without trailing zeros, b nonzero."""
    a = list(a)
    while len(a) >= len(b):
        c, shift = a[-1], len(a) - len(b)
        a = [x * b[-1] for x in a]
        for j, y in enumerate(b):
            a[shift + j] -= c * y
        while a and a[-1] == 0:
            a.pop()
    return a


def _primitive(a: list[int]) -> list[int]:
    content = math.gcd(*a)
    return [c // content for c in a]


def _squarefree_part(a: list[int]) -> list[int]:
    """a / gcd(a, a') in Z[u] for a primitive a of degree >= 1: the
    product of a's distinct irreducible factors, with a's roots.  The gcd
    comes from the primitive remainder sequence, whose coefficients stay
    polynomial in a's bit size; the quotient is exact by Gauss's lemma."""
    x, y = a, _primitive([k * c for k, c in enumerate(a) if k])
    while y:
        x, y = y, _int_pseudo_rem(x, y)
        if y:
            y = _primitive(y)
    quot = []
    rem = list(a)
    for shift in range(len(a) - len(x), -1, -1):
        c = rem[shift + len(x) - 1] // x[-1]
        quot.append(c)
        for j, v in enumerate(x):
            rem[shift + j] -= c * v
    return quot[::-1]


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """Ascending rational roots of sum coeffs[k] u^k (coeffs not all
    zero), by a modular sieve and p-adic lifting (Loos 1983).

    After the zero root is split off, g is scaled to a primitive integer
    polynomial with lead a_d and constant a_0.  A root a/b in lowest
    terms has b | a_d, so it reduces to a root of g mod every prime p
    that does not divide a_d: if one of _SIEVE_PRIMES shows none (its
    _root_product is 1), there is no rational root, and that settles
    nearly every rootless call without any work over Q.  Otherwise the roots of the squarefree part
    s of g mod the first prime where all of them are simple are lifted
    by Newton's iteration (Hensel's lemma) to p^k > 2 |lead(s)| |s_0|,
    which bounds |lead(s) u| for a root u; the symmetric residue of
    lead(s) r mod p^k is then lead(s) u, and an exact check keeps the
    true roots.  Time is polynomial in the bit size of the coefficients."""
    g = list(coeffs)
    while g and g[-1] == 0:
        g.pop()
    k0 = 0
    while k0 < len(g) and g[k0] == 0:
        k0 += 1
    zero = [Fraction(0)] if 0 < k0 < len(g) else []
    g = g[k0:]
    if len(g) <= 1:
        return zero
    scale = math.lcm(*(c.denominator for c in g))
    a = _primitive([c.numerator * (scale // c.denominator) for c in g])
    if len(a) == 2:
        return sorted(zero + [Fraction(-a[0], a[1])])
    for p in _SIEVE_PRIMES:
        if a[-1] % p and len(_root_product([c % p for c in a], p)) == 1:
            return zero
    s = _squarefree_part(a)
    ds = [k * c for k, c in enumerate(s) if k]
    for p in filter(is_prime, count(2)):
        if s[-1] % p == 0:
            continue
        residues = _prime_roots(s, p)
        if not residues:
            return zero
        if all(_horner(ds, r) % p for r in residues):
            break
    bound = 2 * abs(s[-1] * s[0])
    found = []
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _horner(s, r) * pow(_horner(ds, r), -1, m)) % m
        v = s[-1] * r % m
        u = Fraction(v - m if 2 * v > m else v, s[-1])
        if _horner(s, u) == 0:
            found.append(u)
    return sorted(zero + found)


def _durand_kerner(coeffs: list[complex], rng):
    """Simultaneous root iteration on a monic-normalized polynomial.
    Returns the root list on convergence, None otherwise, and None after
    an iteration that leaves a root non-finite: max() drops a NaN step."""
    d = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]

    def ev(z):
        acc = 0j
        for c in reversed(monic):
            acc = acc * z + c
        return acc

    radius = 1.0 + max(abs(c) for c in monic[:-1]) if d > 0 else 1.0
    base = complex(0.4, 0.9)
    roots = []
    for k in range(d):
        jitter = complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        roots.append(base ** (k + 1) * radius + jitter)
    for _ in range(_DK_ITERS):
        moved = 0.0
        nxt = list(roots)
        for i in range(d):
            den = 1 + 0j
            for j in range(d):
                if j != i:
                    den *= roots[i] - roots[j]
            if den == 0:
                den = complex(rng.uniform(1e-12, 1e-9), rng.uniform(1e-12, 1e-9))
            delta = ev(roots[i]) / den
            nxt[i] = roots[i] - delta
            moved = max(moved, abs(delta))
        roots = nxt
        if not all(map(cmath.isfinite, roots)):
            return None
        if moved < 1e-13:
            return roots
    return None


def _poly_divmod(a: list[int], m: list[int], p: int) -> tuple:
    """(quotient, remainder) of a by m over F_p.  Polynomials are
    ascending int coefficient lists mod p without trailing zeros, so []
    is zero; m must be nonzero."""
    a = list(a)
    dm = len(m) - 1
    inv = pow(m[-1], -1, p)
    quot = [0] * max(len(a) - dm, 0)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] * inv % p
        if c:
            quot[i - dm] = c
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    rem = a[:dm]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _poly_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_divmod([c % p for c in prod], m, p)[1]


def _poly_powmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    acc = _poly_divmod([1], m, p)[1]
    base = _poly_divmod(base, m, p)[1]
    for bit in bin(e)[2:]:
        acc = _poly_mulmod(acc, acc, m, p)
        if bit == "1":
            acc = _poly_mulmod(acc, base, m, p)
    return acc


def _poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p (a nonzero)."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _root_product(g: list[int], p: int) -> list[int]:
    """h = gcd(g, u^p - u) for g reduced mod p, nonzero and trimmed: the
    monic product of u - a over the distinct roots a of g in F_p, found
    by repeated squaring of u modulo g."""
    return _poly_gcd(g, _poly_sub(_poly_powmod([0, 1], p, g, p), [0, 1], p), p)


def _prime_roots(g: list[int], p: int) -> list[int]:
    """Ascending distinct roots in F_p of sum g[k] u^k, coefficients mod p.

    Every element when g is zero.  Otherwise equal-degree splitting
    takes _root_product's h apart: for a random shift c,
    gcd(h, (u + c)^((p-1)/2) - 1) collects the roots a with a + c a
    nonzero square (Rabin 1980; Cantor-Zassenhaus 1981).
    The splitting draws from a generator seeded by (p, g), so the result
    and the caller's random stream never depend on it.  Time is
    polynomial in deg g and log p."""
    g = [c % p for c in g]
    while g and g[-1] == 0:
        g.pop()
    if not g:
        return list(range(p))
    if p == 2:      # no (p-1)/2 split: test both elements
        return [u for u, value in ((0, g[0]), (1, sum(g))) if value % 2 == 0]
    h = _root_product(g, p)
    # seeding costs as much as the gcd: only a split needs the generator
    rnd = random.Random(f"{p}:{g}") if len(h) > 2 else None
    roots = []
    pending = [h]
    while pending:
        f = pending.pop()
        if len(f) == 2:
            roots.append(-f[0] % p)
        elif len(f) > 2:
            while True:
                w = _poly_powmod([rnd.randrange(p), 1], (p - 1) // 2, f, p)
                k = _poly_gcd(f, _poly_sub(w, [1], p), p)
                if 2 <= len(k) < len(f):
                    pending += [k, _poly_divmod(f, k, p)[0]]
                    break
    return sorted(roots)


def solve_univariate(desc: FieldDescriptor, coeffs: list, target, rng):
    """Solve sum coeffs[k] u^k = target for u in the field; coeffs and
    target must be values of desc's field (F_p ints need not be reduced).

    gcd with u^p - u plus equal-degree splitting over prime fields, a
    modular sieve and Hensel lifting over Q (_rational_roots), both in
    time polynomial in the bit size of the input, and Durand-Kerner
    over complex.  When several roots exist one is chosen uniformly at
    random from the ascending root list with one draw from rng, so
    retrying callers explore all of them.  A complex root is accepted
    when its residual is within the field's eps (scaled by the largest
    coefficient).  Raises NoRootInField / NonConvergence.
    """
    g = list(coeffs)
    if not g:
        g = [desc.zero()]
    g[0] = g[0] - target

    if desc.kind == "prime":
        roots = _prime_roots(g, desc.p)
        if not roots:
            raise NoRootInField(f"no root in F_{desc.p}")
        return roots[rng.randrange(len(roots))]

    if desc.kind == "rational":
        if all(c == 0 for c in g):
            return desc.sample(rng)
        roots = _rational_roots(g)
        if not roots:
            raise NoRootInField("no rational root")
        return roots[rng.randrange(len(roots))]

    # complex
    trimmed = list(g)
    while trimmed and desc.is_zero(trimmed[-1]):
        trimmed.pop()
    if not trimmed:
        return desc.sample(rng)
    if len(trimmed) == 1:
        raise NoRootInField("nonzero constant equation over C")
    scale = max(1.0, max(abs(c) for c in trimmed))
    for _ in range(_DK_RESTARTS):
        roots = _durand_kerner(trimmed, rng)
        if roots is None:
            continue
        good = [z for z in roots if abs(_horner(trimmed, z)) <= desc.eps * scale]
        if good:
            return good[rng.randrange(len(good))]
    raise NonConvergence("root iteration did not converge")
