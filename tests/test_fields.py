"""Field descriptors, prime-field arithmetic, and univariate solving."""

import math
import operator
import random
import sys
import time
from fractions import Fraction
from itertools import groupby

import pytest

import utpoly.fields
from nc_terms import plus, times
from utpoly import parsing
from utpoly.cpoly import CPolynomial, _CBuilder, _mono_mul, diag_var, entry_var, out_var
from utpoly.errors import FieldMismatch, NoRootInField, ParseError, ResourceLimit
from utpoly.fields import (FieldDescriptor, _rational_roots, is_prime,
                           solve_univariate, split_sign)
from utpoly.freealg import NcPolynomial, _FreeBuilder
from utpoly.solver import hit_open_set, solve_target, verify
from utpoly.triangular import UTMatrix, evaluate, evaluate_structured

Q = FieldDescriptor.parse("Q")
F7 = FieldDescriptor.parse("Fp:7")
C = FieldDescriptor.parse("C")


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-2, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)
    assert not is_prime(341)  # Fermat pseudoprime base 2
    assert not is_prime(561)  # Carmichael


PSI_12 = 318665857834031151167461    # least strong pseudoprime to 2..37
PSI_13 = 3317044064679887385961981   # least strong pseudoprime to 2..41


def test_is_prime_exact_below_psi_13():
    """psi_12, a product of two primes, passes the bases 2..37 and fails
    base 41; psi_13 passes every base through 41, so it is the bound."""
    assert PSI_12 == 399165290221 * 798330580441
    assert is_prime(399165290221) and is_prime(798330580441)
    assert not is_prime(PSI_12)
    assert is_prime(PSI_13)            # composite: why Fp: stops below it
    assert PSI_13 == 1287836182261 * 2575672364521


def test_fp_takes_only_certified_moduli():
    for modulus in (PSI_12, PSI_13, PSI_13 + 2, 2 ** 89 - 1):
        with pytest.raises(ParseError):
            FieldDescriptor.parse(f"Fp:{modulus}")
    largest = next(q for q in range(PSI_13 - 2, 0, -2) if is_prime(q))
    assert FieldDescriptor.parse(f"Fp:{largest}").p == largest


def test_fp_modulus_length_is_checked_before_int():
    """A modulus longer than psi_13 is refused by its length, before
    int() meets a run of digits past Python's limit, and its digits are
    not echoed; leading zeros do not count."""
    with pytest.raises(ParseError, match="modulus of 5000 digits is too large") as info:
        FieldDescriptor.parse("Fp:" + "1" * 5000)
    assert "1" * 26 not in str(info.value)
    with pytest.raises(ParseError, match="modulus of 26 digits"):
        FieldDescriptor.parse(f"Fp:0{PSI_13 * 10 + 1}")
    assert FieldDescriptor.parse("Fp:" + "0" * 5000 + "7").p == 7


@pytest.mark.parametrize("text", ["Fp:\u00b2", "Fp:\u0663"])
def test_fp_modulus_needs_ascii_digits(text):
    # str.isdigit() takes both; int() reads "\u0663" (Arabic-Indic 3) as
    # 3 and fails on the superscript 2
    with pytest.raises(ParseError):
        FieldDescriptor.parse(text)


@pytest.mark.parametrize("field,text", [
    *((field, "\u0663") for field in ("Q", "Fp:7", "C")),
    *((field, "1_0") for field in ("Q", "Fp:7", "C")),
    ("Q", "1/\u0663"), ("Fp:7", "1/\u0663"), ("C", "1_0j")])
def test_literal_needs_ascii_digits(field, text):
    # Fraction(), int() and complex() read each of these as a number
    with pytest.raises(ParseError):
        FieldDescriptor.parse(field).parse_literal(text)


def test_descriptor_parse_render_roundtrip():
    for text in ("Q", "Fp:7", "Fp:101", "C"):
        assert FieldDescriptor.parse(text).render() == text
    tol = FieldDescriptor.parse("C:1e-6")
    assert tol.kind == "complex" and tol.eps == 1e-6


def test_descriptor_parse_rejects_bad_input():
    for bad in ("R", "Fp:4", "Fp:1", "Fp:", "Fp:abc", "Zp:7", ""):
        with pytest.raises(ParseError):
            FieldDescriptor.parse(bad)


def test_descriptor_interop_ignores_tolerance():
    # equality and hashing see the tolerance, so caches keep them apart
    assert FieldDescriptor.parse("C") != FieldDescriptor.parse("C:1e-3")
    assert FieldDescriptor.parse("C").same_field(FieldDescriptor.parse("C:1e-3"))
    assert not Q.same_field(F7)
    assert not F7.same_field(FieldDescriptor.parse("Fp:11"))


def test_fp_arithmetic():
    """F_7 values are ints; the descriptor brings any int result into
    [0, 7) and divides."""
    a, b = F7.from_int(3), F7.from_int(5)
    assert (a, b) == (3, 5)
    assert F7.canonical(a + b) == 1
    assert F7.canonical(a - b) == 5
    assert F7.canonical(a * b) == 1
    assert F7.div(a, b) == 2  # 3 * 5^{-1} = 3 * 3 = 9 = 2
    assert F7.canonical(-a) == 4
    assert F7.div(1, b) == 3  # 5*3 = 15 = 1
    for v in range(1, 7):
        assert F7.canonical(v ** 6) == 1  # Fermat
    assert F7.from_int(-1) == 6 and F7.from_int(10 ** 20) == 10 ** 20 % 7
    assert F7.from_fraction(Fraction(-3, 5)) == F7.div(-3, 5) == 5


def test_fp_division_by_zero():
    """The inverse of zero raises, for every int that is zero mod 7."""
    for zero in (0, 7, -14):
        with pytest.raises(ZeroDivisionError):
            F7.div(1, zero)
    with pytest.raises(ParseError):
        F7.from_fraction(Fraction(1, 7))


def test_fp_hash_consistent_with_eq():
    """is_zero and nonzero read unreduced ints, so equality, the zero
    filter on a difference, does too; a value at rest is the residue, so
    equal elements hash alike."""
    assert all(F7.nonzero(a - b) is None for a, b in ((3, 10), (-4, 3), (0, -21)))
    assert F7.nonzero(3 - 4) is not None
    assert F7.is_zero(14) and F7.is_zero(-7) and not F7.is_zero(8)
    assert F7.nonzero(14) is None and F7.nonzero(-1) == 6
    assert F7.canonical(10) == F7.canonical(-4) == 3
    assert hash(F7.canonical(10)) == hash(F7.canonical(3))
    # over C, nonzero filters within eps but canonical never rounds
    assert C.nonzero(1e-12) is None and C.canonical(1e-12) == 1e-12
    assert Q.nonzero(Fraction(0)) is None and Q.nonzero(Fraction(1, 3)) == Fraction(1, 3)


def test_zero_and_one_are_one_object_per_descriptor():
    for desc in (Q, F7, C):
        assert desc.zero() is desc.zero() and desc.one() is desc.one()
        assert desc.is_zero(desc.zero()) and desc.nonzero(desc.one() - desc.from_int(1)) is None
    assert FieldDescriptor.parse("Q").zero() == Fraction(0)


F11 = FieldDescriptor.parse("Fp:11")
_COMM = "x1*x2-x2*x1"


def _mats(desc):
    return [UTMatrix(desc, 2, {(1, 1): desc.from_int(i), (1, 2): desc.one(),
                               (2, 2): desc.from_int(i + 2)}) for i in (1, 2)]


def _target(desc):
    return UTMatrix(desc, 2, {(1, 2): desc.from_int(3)})


_MIXED = {
    "matrix@": lambda: _mats(F7)[0] @ _mats(F11)[0],
    "evaluate": lambda: evaluate(NcPolynomial.parse(_COMM, F7), _mats(F11)),
    "evaluate_structured": lambda: evaluate_structured(
        NcPolynomial.parse(_COMM, F7), _mats(F11)),
    "cpoly*": lambda: (CPolynomial.parse("z[1,1]", F7)
                       * CPolynomial.parse("z[1,1]", F11)),
    "solve_target": lambda: solve_target(NcPolynomial.parse(_COMM, F7), 2,
                                         _target(F11)),
    "verify_witness": lambda: verify(NcPolynomial.parse(_COMM, F7), _mats(F11)),
    "verify_target": lambda: verify(NcPolynomial.parse(_COMM, F7), _mats(F7),
                                    target=_target(F11)),
    "verify_open_set": lambda: verify(NcPolynomial.parse(_COMM, F7), _mats(F7),
                                      f=CPolynomial.parse("y[1,2]", F11)),
    "hit_open_set": lambda: hit_open_set(NcPolynomial.parse(_COMM, F7), 2,
                                         CPolynomial.parse("y[1,2]", F11)),
    "verify_open_set_Q": lambda: verify(NcPolynomial.parse(_COMM, F7), _mats(F7),
                                        f=CPolynomial.parse("y[1,2] + 1", Q)),
    "hit_open_set_Q": lambda: hit_open_set(NcPolynomial.parse(_COMM, F7), 2,
                                           CPolynomial.parse("y[1,2] + 1", Q)),
}


@pytest.mark.parametrize("op", sorted(_MIXED))
def test_mixed_moduli_raise_field_mismatch(op):
    """An F_p value is a bare int, so Fp:7 and Fp:11 are told apart where
    two field-carrying objects meet, at every public operation.  An
    open-set polynomial over F_11 (or Q) used to reach Fp's 'mixed
    moduli' ValueError (or a TypeError) only once arithmetic began."""
    with pytest.raises(FieldMismatch):
        _MIXED[op]()


def test_literals_roundtrip_rational():
    for text, want in (("5", Fraction(5)), ("-3", Fraction(-3)),
                       ("2.5", Fraction(5, 2)), ("1e3", Fraction(1000))):
        got = Q.parse_literal(text)
        assert got == want
        assert Q.parse_literal(Q.render_value(got)) == got


def test_literals_roundtrip_prime():
    v = F7.parse_literal("12")
    assert v == 5
    assert F7.parse_literal("-1/2") == 3  # -(2^{-1}) = -4 = 3 mod 7
    assert F7.render_value(v) == "5"


def test_literals_roundtrip_complex():
    for text in ("3", "-2.5", "1e-3", "2j", "1+2j", "-1.5-0.5j"):
        v = C.parse_literal(text)
        assert C.nonzero(C.parse_literal(C.render_value(v)) - v) is None


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "nan+1j", "1+infj",
                                  "1e400"])
def test_complex_literal_must_be_finite(text):
    with pytest.raises(ParseError):
        C.parse_literal(text)


def test_rational_render_is_exact():
    v = Fraction(-22, 7)
    assert Q.render_value(v) == "-22/7"
    assert Q.parse_literal("-22/7") == v


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("value", [
    Fraction(10 ** 12 - 1, 7), Fraction(-(10 ** 12 - 1), 10 ** 12 - 3),
    Fraction(1, 10 ** 11 + 1), Fraction(-(10 ** 12 - 1))])
def test_rational_text_stops_past_the_digit_limit(monkeypatch, value):
    """Every Q value becomes text through one check of Python's digit
    limit: a part of 12 digits renders under a limit of 12, and raises
    ResourceLimit, naming the limit, under 11; the library only reads
    the limit."""
    monkeypatch.setattr(utpoly.fields, "_digit_limit", lambda: 12)
    assert Q.render_value(value) == str(value)
    q = CPolynomial(Q, {((diag_var(1, 1), 1),): value})
    assert q.render() == f"{value}*z[1,1]"
    monkeypatch.setattr(utpoly.fields, "_digit_limit", lambda: 11)
    for text in (lambda: Q.render_value(value), q.render):
        with pytest.raises(ResourceLimit, match="more than 11 digits"):
            text()
    monkeypatch.setattr(utpoly.fields, "_digit_limit", lambda: 0)
    assert Q.render_value(value) == str(value)
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == LIMIT


@pytest.mark.skipif(not LIMIT, reason="this Python converts ints of any size")
@pytest.mark.parametrize("desc", [Q, F7], ids=["Q", "F7"])
@pytest.mark.parametrize("shape", ["{}", "1/{}", "-{}/3", "1.{}"])
def test_a_literal_past_the_digit_limit_names_it(desc, shape):
    """A literal with a run of digits past Python's limit is a ParseError
    that names the limit, not a bare "bad literal"; one at the limit
    reads."""
    digits = "1" + "0" * (LIMIT - 1) + "1"
    with pytest.raises(ParseError, match=f"{LIMIT + 1} digits in a row, past "
                                         f"Python's {LIMIT}-digit"):
        desc.parse_literal(shape.format(digits))
    assert desc.parse_literal(shape.format(digits[1:])) == desc.from_fraction(
        Fraction(shape.format(digits[1:])))


def test_from_int_from_fraction():
    assert F7.from_int(10) == 3
    assert F7.from_fraction(Fraction(1, 2)) == 4  # 2^{-1} = 4 mod 7
    assert Q.from_fraction(Fraction(3, 4)) == Fraction(3, 4)
    assert C.from_int(3) == 3.0 + 0j


def test_is_zero_and_eq_tolerance():
    assert C.is_zero(1e-12)
    assert not C.is_zero(1e-3)
    assert C.nonzero(1.0 - (1.0 + 1e-12)) is None
    assert Q.is_zero(Fraction(0)) and not Q.is_zero(Fraction(1, 10 ** 9))


@pytest.mark.parametrize("field", ["Q", "Fp:2", "Fp:101", "C"])
def test_power_equals_the_left_fold(field):
    """FieldDescriptor.power gives at rest what the parser's left fold of
    products gives: pow mod p, an exact power, and over C the fold's
    float bits."""
    desc = FieldDescriptor.parse(field)
    bases = [desc.from_int(k) for k in (0, 1, -1, 2)] + [desc.from_fraction(Fraction(1, 3))]
    if field == "C":
        bases.append(0.5 + 1j)
    for c in bases:
        for e in (1, 2, 7):
            want = desc.canonical(parsing.power(operator.mul, c, e))
            got = desc.power(c, e)
            assert got == want and type(got) is type(want), (c, e)


def test_power_bounds_name_their_limits():
    """A number has no letters, so its power has bounds of its own: bits
    over Q (none for 0, 1 and -1), the fold's exponent over C, none over
    F_p."""
    bits, fold = utpoly.fields._MAX_POWER_BITS, utpoly.fields._MAX_POWER_FOLD
    assert Q.power(Fraction(2), bits) == 2 ** bits
    with pytest.raises(ResourceLimit) as info:
        Q.power(Fraction(2), bits + 1)
    assert str(info.value).endswith(f"past the parser's limit of {bits}")
    with pytest.raises(ResourceLimit) as info:
        Q.power(Fraction(1, 3), 10 ** 400)
    assert str(info.value).endswith(f"past the parser's limit of {bits}")
    with pytest.raises(ResourceLimit) as info:
        C.power(2 + 0j, fold + 1)
    assert str(info.value).endswith(f"past the parser's limit of {fold}")
    huge = 10 ** 400
    assert [Q.power(Fraction(k), huge) for k in (0, 1, -1)] == [0, 1, 1]
    assert F7.power(3, huge) == pow(3, huge, 7)


def test_sample_support_rational():
    rng = random.Random(0)
    seen = {Q.sample(rng) for _ in range(4000)}
    assert len(seen) > 3000  # far beyond what height 100 could give


def test_sample_prime_field_covers():
    rng = random.Random(2)
    seen = {F7.sample(rng) for _ in range(200)}
    assert seen == set(range(7))


def test_split_sign():
    assert split_sign(Q, Fraction(-3, 2)) == (-1, "3/2")
    assert split_sign(Q, Fraction(5)) == (1, "5")
    assert split_sign(F7, 6) == (1, "6")
    assert split_sign(F7, 1) == (1, "")


# -- shared sparse-polynomial helpers against the loops they replaced ----------
# TermBuilder.add has the loop of _ref_add; its mul, that of _ref_free_mul
# with the free builder's join and that of _ref_comm_mul with the open-set
# builder's, as CPolynomial.__mul__ has.  The free sums and products here
# wrap the same kernels (tests/nc_terms.py).


def _ref_add(field, a, b):
    terms = dict(a)
    for w, c in b.items():
        terms[w] = terms.get(w, field.zero()) + c
    return terms


def _ref_free_mul(a, b):
    terms = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            prod = c1 * c2
            if w in terms:
                terms[w] = terms[w] + prod
            else:
                terms[w] = prod
    return terms


def _ref_comm_mul(a, b):
    terms = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            prod = c1 * c2
            if m in terms:
                terms[m] = terms[m] + prod
            else:
                terms[m] = prod
    return terms


def _ref_split_sign(desc, c):
    """split_sign as it was written when render sorted on (degree,
    monomial) and rendered each term's variables one by one: the sign and
    the text of the magnitude, "" for 1.  The references below use it and
    nothing of the library's text code."""
    if desc.kind == "rational":
        sign = -1 if c < 0 else 1
        mag = abs(c)
        return sign, "" if mag == 1 else str(mag)
    if desc.kind == "prime":
        return 1, "" if c == 1 else str(c)
    if c.imag == 0:
        sign = -1 if c.real < 0 else 1
        mag = abs(c.real)
        return sign, "" if mag == 1 else repr(mag)
    if c.real == 0:
        sign = -1 if c.imag < 0 else 1
        return sign, f"{abs(c.imag)!r}j"
    inner = f"{c.real!r}{'+' if c.imag > 0 else '-'}{abs(c.imag)!r}j"
    return 1, f"({inner})"


def _ref_var(key):
    return f"{key[0]}[{','.join(str(i) for i in key[1:])}]"


def _ref_pretty(p):
    if not p.terms:
        return "0"
    pieces = []
    for word in sorted(p.terms, key=lambda w: (len(w), w)):
        body = "*".join(
            f"x{i}^{k}" if (k := len(list(run))) > 1 else f"x{i}"
            for i, run in groupby(word))
        sign, coeff_text = _ref_split_sign(p.field, p.terms[word])
        text = f"{coeff_text}*{body}" if coeff_text else body
        if not pieces:
            pieces.append(("-" if sign < 0 else "") + text)
        else:
            pieces.append((" - " if sign < 0 else " + ") + text)
    return "".join(pieces)


def _ref_render(q):
    if not q.terms:
        return "0"
    def mono_key(m):
        return (sum(e for _, e in m), m)
    pieces = []
    for m in sorted(q.terms, key=mono_key):
        sign, coeff_text = _ref_split_sign(q.field, q.terms[m])
        body = "*".join(f"{_ref_var(k)}^{e}" if e > 1 else _ref_var(k) for k, e in m)
        if not body:
            text = coeff_text or "1"
        else:
            text = f"{coeff_text}*{body}" if coeff_text else body
        if not pieces:
            pieces.append(("-" if sign < 0 else "") + text)
        else:
            pieces.append((" - " if sign < 0 else " + ") + text)
    return "".join(pieces)


def _coeff(desc, rng):
    """A random coefficient, often one the renderers treat specially:
    +-1, a pure real or imaginary complex, a value below C:0.5's eps."""
    roll = rng.random()
    if desc.kind != "complex":
        if roll < 0.4:
            return desc.from_int(rng.choice((1, -1, 2, -2)))
        return desc.sample(rng, 4)
    if roll < 0.2:
        return complex(rng.choice((1.0, -1.0, 2.5, -0.75)), 0.0)
    if roll < 0.35:
        return complex(0.0, rng.choice((1.0, -2.0, 0.3)))
    if roll < 0.45:
        return complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
    return desc.sample(rng)


_VARS = (entry_var(1, 2, 1), entry_var(1, 2, 2), diag_var(1, 1), diag_var(2, 1))


def _random_terms(desc, rng, key):
    return {key(rng): _coeff(desc, rng) for _ in range(rng.randint(0, 6))}


def _word(rng):
    return tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3)))


def _mono(rng):
    keys = rng.sample(_VARS, rng.randint(0, 2))      # () is a constant
    return tuple(sorted((k, rng.randint(1, 2)) for k in keys))


def _exact(items):
    """Term order and exact coefficients; over C the bits of both parts."""
    return [(k, (c.real.hex(), c.imag.hex()) if isinstance(c, complex) else c)
            for k, c in items]


@pytest.mark.parametrize("spec", ["Q", "Fp:2", "Fp:101", "C", "C:0.5"])
def test_term_helpers_match_the_loops_they_replaced(spec):
    """Sums, products and text of both polynomial kinds, and both
    parsers' raw sums and products, against the copies above: same
    coefficients to the bit and same term order (C's summation order)."""
    desc = FieldDescriptor.parse(spec)
    rng = random.Random(spec)
    builder, cbuilder = _FreeBuilder(desc), _CBuilder(desc, "xzy")
    for _ in range(150):
        a, b, c = (NcPolynomial(desc, 2, _random_terms(desc, rng, _word))
                   for _ in range(3))
        got = times(plus(times(a, b), c), a)
        want = NcPolynomial(desc, 2, _ref_free_mul(NcPolynomial(
            desc, 2, _ref_add(desc, NcPolynomial(
                desc, 2, _ref_free_mul(a.terms, b.terms)).terms,
                c.terms)).terms, a.terms))
        assert _exact(got.terms.items()) == _exact(want.terms.items())
        for p in (a, b, c, got):
            assert p.pretty() == _ref_pretty(p)
        # raw builder maps keep cancelled terms and a constant ()
        ra, rb = dict(a.terms), {**b.terms, (): _coeff(desc, rng)}
        assert _exact(builder.add(ra, rb).items()) == \
            _exact(_ref_add(desc, ra, rb).items())
        prod = builder.mul(builder.add(ra, rb), ra)
        assert _exact(prod.items()) == \
            _exact(_ref_free_mul(_ref_add(desc, ra, rb), ra).items())

        f, g, h = (CPolynomial(desc, _random_terms(desc, rng, _mono))
                   for _ in range(3))
        assert _exact((f * g).terms.items()) == \
            _exact(CPolynomial(desc, _ref_comm_mul(f.terms, g.terms)).terms.items())
        # raw builder maps keep cancelled terms and a constant ()
        rh = {**h.terms, (): _coeff(desc, rng)}
        raw = cbuilder.mul(cbuilder.add(cbuilder.mul(f.terms, g.terms), rh), f.terms)
        assert _exact(raw.items()) == _exact(_ref_comm_mul(
            _ref_add(desc, _ref_comm_mul(f.terms, g.terms), rh), f.terms).items())
        got = CPolynomial(desc, raw)
        for q in (f, g, h, got):
            assert q.render() == _ref_render(q)


_RENDER_COEFFS = {
    "Q": [Fraction(1), Fraction(-1), Fraction(-3), Fraction(7), Fraction(2, 3),
          Fraction(-5, 4), Fraction(10 ** 30 + 7), Fraction(-(10 ** 25), 3 ** 20)],
    "Fp:101": [1, 100, 2, 57],
    "C": [complex(1.0, 0.0), complex(-1.0, 0.0), complex(2.5, 0.0), complex(-0.75, 0.0),
          complex(0.0, 1.0), complex(0.0, -2.0), complex(1.5, 2.0), complex(-1.5, 2.0),
          complex(1.5, -0.25), complex(-3.0, -1.0)],
}
# x[1,10,1] sorts after x[1,2,1] but its text before: the order is the keys'
_RENDER_KEYS = (entry_var(1, 2, 1), entry_var(1, 10, 1), entry_var(2, 10, 3),
                diag_var(1, 1), diag_var(2, 1), diag_var(10, 2), out_var(1, 3), out_var(1, 10))


@pytest.mark.parametrize("spec", list(_RENDER_COEFFS))
def test_render_matches_a_reference_that_shares_no_code(spec):
    """CPolynomial.render and NcPolynomial.pretty against _ref_render and
    _ref_pretty on seeded random polynomials: every coefficient kind the
    renderers treat apart (Q's +-1, negatives, fractions and big integers;
    C's real, imaginary and mixed values of either sign), exponents above
    1, constant terms, and the zero polynomial."""
    desc = FieldDescriptor.parse(spec)
    pool = [desc.from_fraction(c) if spec == "Q" else c for c in _RENDER_COEFFS[spec]]
    rng = random.Random(spec)
    used, exponents, constants = set(), 0, 0
    for _ in range(200):
        terms, words = {}, {}
        for _ in range(rng.randint(0, 12)):
            keys = rng.sample(_RENDER_KEYS, rng.randint(0, 4))
            m = tuple(sorted((k, rng.choice((1, 1, 2, 3))) for k in keys))
            word = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5)))
            i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
            terms[m], words[word] = pool[i], pool[j]
            used |= {i, j}
            exponents += any(e > 1 for _, e in m)
            constants += not m
        q, p = CPolynomial(desc, terms), NcPolynomial(desc, 3, words)
        assert q.render() == _ref_render(q), terms
        assert p.pretty() == _ref_pretty(p), words
    assert used == set(range(len(pool))) and exponents and constants
    assert CPolynomial(desc, {}).render() == _ref_render(CPolynomial(desc, {})) == "0"
    assert NcPolynomial(desc, 3, {}).pretty() == _ref_pretty(NcPolynomial(desc, 3, {})) == "0"


def test_solve_univariate_rational_quadratic():
    rng = random.Random(3)
    # 2u^2 = 8 -> u = +-2; both roots must be reachable across seeds
    roots = {solve_univariate(Q, [Fraction(0), Fraction(0), Fraction(2)],
                              Fraction(8), random.Random(i)) for i in range(20)}
    assert roots == {Fraction(2), Fraction(-2)}
    with pytest.raises(NoRootInField):
        solve_univariate(Q, [Fraction(0), Fraction(0), Fraction(1)],
                         Fraction(2), rng)  # sqrt(2) irrational


def test_solve_univariate_rational_linear_and_degenerate():
    rng = random.Random(4)
    assert solve_univariate(Q, [Fraction(1), Fraction(3)], Fraction(7), rng) == Fraction(2)
    # identically-zero equation: any field element works
    v = solve_univariate(Q, [Fraction(0)], Fraction(0), rng)
    assert isinstance(v, Fraction)
    with pytest.raises(NoRootInField):
        solve_univariate(Q, [Fraction(1)], Fraction(2), rng)  # 1 = 2


def _divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out += [d] if d == n // d else [d, n // d]
        d += 1
    return out


def _q_value(g, u):
    acc = Fraction(0)
    for c in reversed(g):
        acc = acc * u + c
    return acc


def _divisor_search_roots(coeffs):
    """The rational root finder this library used before the modular
    sieve: every +-num/den with num | a_0 and den | a_d of the primitive
    integer polynomial, after the zero root is split off.  Exponential
    in bit size, so only for small heights."""
    g = list(coeffs)
    while g and g[-1] == 0:
        g.pop()
    roots = set()
    k0 = 0
    while k0 < len(g) and g[k0] == 0:
        k0 += 1
    if 0 < k0 < len(g):
        roots.add(Fraction(0))
        g = g[k0:]
    if len(g) <= 1:
        return sorted(roots)
    scale = math.lcm(*(c.denominator for c in g))
    ints = [int(c * scale) for c in g]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    for num in _divisors(ints[0]):
        for den in _divisors(ints[-1]):
            if math.gcd(num, den) == 1:
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if _q_value(g, cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def _q_times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_q_poly(gen, trial):
    """Degree 1..6 over Q times a scale k/D with k in 2..9 and D up to
    20^5: on every fifth trial random coefficients of small height,
    otherwise a product of linear factors u - a/b with |a|, b <= 20
    (some repeated, some u itself) and rootless quadratics."""
    degree = gen.randint(1, 6)
    scale = Fraction(gen.choice([-1, 1]) * gen.randint(2, 9), gen.randint(1, 20 ** 5))
    if trial % 5 == 0:
        g = [Fraction(gen.randint(-40, 40), gen.randint(1, 6)) for _ in range(degree)]
        return [c * scale for c in g] + [scale * gen.randint(1, 40)]
    g = [scale]
    while len(g) <= degree:
        kind = gen.random()
        if kind < 0.15:
            factor = [Fraction(0), Fraction(1)]
        elif kind < 0.3 and len(g) < degree:
            factor = [Fraction(gen.randint(1, 9)), Fraction(0), Fraction(gen.randint(1, 9))]
        else:
            factor = [Fraction(gen.randint(-20, 20), gen.randint(1, 20)), Fraction(1)]
        twice = len(g) + 2 * len(factor) - 3 <= degree and gen.random() < 0.3
        for _ in range(2 if twice else 1):
            g = _q_times(g, factor)
    return g


def _deflate(g, r):
    """g / (u - r) for a root r of g."""
    out = []
    acc = Fraction(0)
    for c in reversed(g[1:]):
        acc = acc * r + c
        out.append(acc)
    return out[::-1]


@pytest.mark.parametrize("seed", range(4))
def test_solve_univariate_rational_matches_divisor_search(seed):
    """The sieve-and-lift finder returns the divisor search's root list,
    and solve_univariate picks from it with one draw: degrees 1..6,
    repeated roots, zero roots (a zero constant term), denominators up
    to 20^5 and content other than 1."""
    gen = random.Random(seed)
    degrees, repeated, zero_roots, rootless = set(), 0, 0, 0
    for trial in range(100):
        g = _random_q_poly(gen, trial)
        target = Fraction(gen.randint(-50, 50), gen.randint(1, 50))
        coeffs = [g[0] + target] + g[1:]
        want = _divisor_search_roots(g)
        assert _rational_roots(g) == want, g
        degrees.add(len(g) - 1)
        draw = gen.randrange(2 ** 30)
        if not want:
            rootless += 1
            with pytest.raises(NoRootInField):
                solve_univariate(Q, coeffs, target, random.Random(draw))
            continue
        u = solve_univariate(Q, coeffs, target, random.Random(draw))
        assert u == want[random.Random(draw).randrange(len(want))]
        zero_roots += g[0] == 0
        repeated += any(_q_value(_deflate(g, r), r) == 0 for r in want)
    assert degrees == set(range(1, 7))
    assert min(zero_roots, repeated, rootless) >= 5


@pytest.mark.parametrize("coeffs,target", [
    ([0, 0, 2], 8),              # 2u^2 = 8: u = +-2
    ([4, -12, 9, 0], 0),         # u (3u - 2)^2: a zero and a double root
    ([Fraction(1, 6), Fraction(-5, 6), 1], 0),   # roots 1/3 and 1/2
    ([5, 1], 2),                 # linear
])
def test_solve_univariate_rational_draws_once(coeffs, target):
    """As over F_p, the caller's stream makes exactly one
    randrange(len(roots)) draw."""
    rng, twin = random.Random(9), random.Random(9)
    g = [Fraction(c) for c in coeffs]
    u = solve_univariate(Q, g, Fraction(target), rng)
    roots = _divisor_search_roots([g[0] - target] + g[1:])
    assert u == roots[twin.randrange(len(roots))]
    assert rng.getstate() == twin.getstate()


def test_rational_roots_of_large_height():
    """Roots with 40-digit numerators and denominators, and a rootless
    quartic with 30-digit coefficients, far beyond a divisor search."""
    a, b, c = 10 ** 40 + 7, 10 ** 39 + 3, 3 ** 80
    g = _q_times(_q_times([Fraction(-a, b), Fraction(1)], [Fraction(c), Fraction(7)]),
                 [Fraction(1), Fraction(0), Fraction(1)])
    rootless = [Fraction(10 ** 30 + 57), Fraction(0), Fraction(-(10 ** 29 + 1)),
                Fraction(0), Fraction(3)]
    t0 = time.perf_counter()
    assert _rational_roots(g) == [Fraction(-c, 7), Fraction(a, b)]
    assert _rational_roots(rootless) == []
    assert time.perf_counter() - t0 < 1.0


def test_solve_univariate_prime_exhaustive():
    F5 = FieldDescriptor.parse("Fp:5")
    rng = random.Random(5)
    # u^2 = 4 over F_5 -> u in {2, 3}
    roots = {solve_univariate(F5, [0, 0, 1], 4, random.Random(i))
             for i in range(20)}
    assert roots == {2, 3}
    with pytest.raises(NoRootInField):
        solve_univariate(F5, [0, 0, 1], 2, rng)


def test_solve_univariate_complex_cube_root():
    rng = random.Random(6)
    u = solve_univariate(C, [0j, 0j, 0j, 1 + 0j], -8 + 0j, rng)
    assert abs(u ** 3 + 8) < 1e-8


def test_solve_univariate_complex_always_solvable():
    rng = random.Random(7)
    for k in range(2, 6):
        coeffs = [0j] * k + [1 + 0j]
        tgt = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        u = solve_univariate(C, coeffs, tgt, rng)
        assert abs(u ** k - tgt) < 1e-7 * max(1.0, abs(tgt))


@pytest.mark.parametrize("d,converges", [(100, True), (150, False), (200, False), (400, False)])
def test_durand_kerner_ends_at_a_non_finite_root(d, converges):
    """u^d = 2: past d of about 140 a product of d - 1 root differences
    leaves the float range, so a step is NaN, which max() drops from the
    largest step; the run used to return d non-finite roots as converged.
    It now returns None after that iteration, and at d = 100 it still
    returns d finite roots."""
    roots = utpoly.fields._durand_kerner([-2 + 0j] + [0j] * (d - 1) + [1 + 0j],
                                         random.Random(0))
    if converges:
        assert len(roots) == d
        assert all(math.isfinite(z.real) and math.isfinite(z.imag) for z in roots)
    else:
        assert roots is None


def _brute_roots(g, p):
    return [u for u in range(p)
            if sum(c * pow(u, k, p) for k, c in enumerate(g)) % p == 0]


def _times(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_solve_univariate_prime_matches_scan(p):
    """The gcd/splitting root finder returns exactly the scan's roots:
    degrees 0..2p (so deg >= p), forced repeated roots, zero trailing
    coefficients, and the zero polynomial, where every element is a
    root."""
    F = FieldDescriptor("prime", p=p)
    gen = random.Random(p)
    for trial in range(60):
        g = [gen.randrange(p) for _ in range(gen.randrange(2 * p + 1) + 1)]
        if trial % 3 == 0:
            a = gen.randrange(p)
            for _ in range(gen.randrange(2, 4)):
                g = _times(g, [-a % p, 1], p)
        if trial % 4 == 0:
            g += [0] * gen.randrange(1, 3)
        if trial == 5:
            g = [0] * gen.randrange(1, 4)
        coeffs = list(g)
        target = 0 if trial == 5 else gen.randrange(p)
        shifted = [(g[0] - target) % p] + g[1:]
        roots = _brute_roots(shifted, p)
        seed = gen.randrange(2 ** 30)
        if not roots:
            with pytest.raises(NoRootInField):
                solve_univariate(F, coeffs, target, random.Random(seed))
            continue
        u = solve_univariate(F, coeffs, target, random.Random(seed))
        assert u == roots[random.Random(seed).randrange(len(roots))]


def test_solve_univariate_prime_two_elements():
    F2 = FieldDescriptor.parse("Fp:2")
    one, zero = F2.one(), F2.zero()
    # u^2 + u = 0 holds at both elements of F_2
    assert {solve_univariate(F2, [zero, one, one], zero, random.Random(i))
            for i in range(20)} == {0, 1}
    assert solve_univariate(F2, [zero, zero, one], one, random.Random(0)) == one
    with pytest.raises(NoRootInField):
        solve_univariate(F2, [zero, one, one], one, random.Random(0))


@pytest.mark.parametrize("field,coeffs,target", [
    ("Fp:101", [3, 0, 1], 7),      # u^2 = 4: two roots
    ("Fp:101", [0, 0, 0], 0),      # zero polynomial: every element
    ("Fp:7", [0, 1, 0, 0, 0, 0, 0, 6], 0),   # u - u^7 vanishes on F_7
])
def test_solve_univariate_prime_draws_once(field, coeffs, target):
    """The caller's stream makes exactly one randrange(len(roots)) draw;
    the splitting randomness comes from elsewhere."""
    F = FieldDescriptor.parse(field)
    rng, twin = random.Random(9), random.Random(9)
    u = solve_univariate(F, coeffs, target, rng)
    roots = _brute_roots([(coeffs[0] - target) % F.p] + coeffs[1:], F.p)
    assert u == roots[twin.randrange(len(roots))]
    assert rng.getstate() == twin.getstate()


def test_solve_univariate_prime_time_independent_of_p():
    """A cubic over F_1000003 is solved without scanning the field (the
    scan took seconds)."""
    p = 1000003
    F = FieldDescriptor.parse(f"Fp:{p}")
    # (u - 2)(u - 5)(u - 999999) = u^3 - 1000006 u^2 + ... ; build it mod p
    g = _times(_times([-2 % p, 1], [-5 % p, 1], p), [-999999 % p, 1], p)
    t0 = time.perf_counter()
    roots = {solve_univariate(F, g, 0, random.Random(i)) for i in range(10)}
    assert time.perf_counter() - t0 < 1.0
    assert roots == {2, 5, 999999}
    with pytest.raises(NoRootInField):
        # u^3 = 2 has no root: 2 is not a cube mod p (p = 1 mod 3)
        solve_univariate(F, [0, 0, 0, 1], 2, random.Random(0))
