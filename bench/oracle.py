"""Independent stdlib checks for utpoly outputs.

Nothing here imports utpoly.  Field values are plain Python objects:
Fraction over Q, int in [0, p) over F_p, complex over C.  Polynomials in
noncommuting variables are dicts {word: coeff} with words as tuples of
1-based variable indices.  Matrices are dense n x n lists of lists, upper
triangular.  The evaluator is written apart from utpoly's own routes, so
it can check both of them, and verify, which runs one of them.
"""

from __future__ import annotations

import re
from fractions import Fraction

COMPLEX_EPS = 1e-9          # utpoly's default tolerance for C
COMPLEX_CHECK_TOL = 1e-7    # slack for a different order of float operations


class Field:
    """One of Q, F_p or C, named by the CLI's --field text."""

    def __init__(self, spec: str):
        self.spec = spec
        if spec == "Q":
            self.kind, self.p = "Q", None
        elif spec.startswith("Fp:"):
            self.kind, self.p = "Fp", int(spec[3:])
        elif spec == "C":
            self.kind, self.p = "C", None
        else:
            raise ValueError(f"unknown field {spec!r}")

    def zero(self):
        return {"Q": Fraction(0), "Fp": 0, "C": 0j}[self.kind]

    def one(self):
        return {"Q": Fraction(1), "Fp": 1, "C": 1 + 0j}[self.kind]

    def of(self, v):
        """Embed an int or Fraction."""
        if self.kind == "Q":
            return Fraction(v)
        if self.kind == "Fp":
            v = Fraction(v)
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        return complex(float(Fraction(v)))

    def norm(self, v):
        return v % self.p if self.kind == "Fp" else v

    def parse(self, text: str):
        if self.kind == "C":
            return complex(text)
        return self.of(Fraction(text))

    def render(self, v) -> str:
        """Literal text that the CLI accepts back."""
        if self.kind == "C":
            return f"{v.real!r}{v.imag:+}j"
        return str(v)

    def is_zero(self, v) -> bool:
        if self.kind == "C":
            return abs(v) <= COMPLEX_EPS
        return v == 0

    def close(self, a, b) -> bool:
        if self.kind == "C":
            return abs(a - b) <= COMPLEX_CHECK_TOL * max(1.0, abs(b))
        return a == b

    def sample(self, rng, height: int = 9):
        if self.kind == "Q":
            return Fraction(rng.randint(-height, height), rng.randint(1, height))
        if self.kind == "Fp":
            return rng.randrange(self.p)
        return complex(rng.randint(-height, height), rng.randint(-height, height))

    def sample_nonzero(self, rng, height: int = 9):
        while True:
            v = self.sample(rng, height)
            if not self.is_zero(v):
                return v


# -- noncommutative polynomials ------------------------------------------------


def nc_mul(F: Field, a: dict, b: dict) -> dict:
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            out[w] = F.norm(out.get(w, F.zero()) + c1 * c2)
    return {w: c for w, c in out.items() if not F.is_zero(c)}


def nc_add(F: Field, a: dict, b: dict) -> dict:
    out = dict(a)
    for w, c in b.items():
        out[w] = F.norm(out.get(w, F.zero()) + c)
    return {w: c for w, c in out.items() if not F.is_zero(c)}


def nc_scale(F: Field, a: dict, c) -> dict:
    return {w: F.norm(c * v) for w, v in a.items() if not F.is_zero(F.norm(c * v))}


def var(F: Field, i: int) -> dict:
    return {(i,): F.one()}


def commutator(F: Field, a: int, b: int) -> dict:
    return {(a, b): F.one(), (b, a): F.norm(-F.one())}


def nvars(poly: dict) -> int:
    return max(max(w) for w in poly)


def degree(poly: dict) -> int:
    return max(len(w) for w in poly)


# -- dense upper triangular matrices --------------------------------------------


def zeros(F: Field, n: int) -> list:
    return [[F.zero()] * n for _ in range(n)]


def matmul(F: Field, a: list, b: list) -> list:
    n = len(a)
    out = zeros(F, n)
    for i in range(n):
        row = a[i]
        for k in range(i, n):
            acc = F.zero()
            for j in range(i, k + 1):
                acc += row[j] * b[j][k]
            out[i][k] = F.norm(acc)
    return out


def evaluate(F: Field, poly: dict, mats: list) -> list:
    """p(A_1, ..., A_m) by dense products; shared word prefixes are
    multiplied once."""
    n = len(mats[0])
    prefix: dict = {}

    def word_product(word):
        if word in prefix:
            return prefix[word]
        if len(word) == 1:
            out = mats[word[0] - 1]
        else:
            out = matmul(F, word_product(word[:-1]), mats[word[-1] - 1])
        prefix[word] = out
        return out

    total = zeros(F, n)
    for word, c in poly.items():
        prod = word_product(word)
        for i in range(n):
            for k in range(i, n):
                total[i][k] = F.norm(total[i][k] + c * prod[i][k])
    return total


def band_level(F: Field, mat: list) -> int:
    """Largest t with every entry (j,k), k - j <= t, zero; n-1 for zero."""
    n = len(mat)
    gaps = [k - j for j in range(n) for k in range(j, n)
            if not F.is_zero(mat[j][k])]
    return min(gaps) - 1 if gaps else n - 1


def random_tuple(F: Field, rng, n: int, m: int, height: int = 9) -> list:
    return [[[F.sample(rng, height) if k >= j else F.zero() for k in range(n)]
             for j in range(n)] for _ in range(m)]


def matrix_to_json(F: Field, mat: list) -> dict:
    n = len(mat)
    return {"n": n, "ring": "field",
            "entries": [{"j": j + 1, "k": k + 1, "value": F.render(mat[j][k])}
                        for j in range(n) for k in range(j, n)
                        if not F.is_zero(mat[j][k])]}


def matrix_from_json(F: Field, data: dict) -> list:
    mat = zeros(F, int(data["n"]))
    for e in data["entries"]:
        mat[e["j"] - 1][e["k"] - 1] = F.parse(e["value"])
    return mat


def same_matrix(F: Field, a: list, b: list) -> bool:
    n = len(a)
    return len(b) == n and all(F.close(a[j][k], b[j][k])
                               for j in range(n) for k in range(j, n))


# -- symbolic output -------------------------------------------------------------

_VAR = re.compile(r"([xyz])\[([\d,]+)\](?:\^(\d+))?$")
_SPLIT = re.compile(r" ([+-]) ")


def parse_commutative(F: Field, text: str) -> list:
    """Terms [(coeff, [(key, exp), ...])] of a rendered commutative
    polynomial such as '-z[1,2] + 3/2*x[1,2,1]*z[2,2]^2' (Q and F_p)."""
    if text == "0":
        return []
    pieces = _SPLIT.split(text)
    signs = ["+"] + pieces[1::2]
    terms = []
    for sign, piece in zip(signs, pieces[0::2]):
        if piece.startswith("-"):
            sign = "-" if sign == "+" else "+"
            piece = piece[1:]
        coeff = F.one()
        factors = []
        for part in piece.split("*"):
            mt = _VAR.match(part)
            if mt:
                key = (mt.group(1),) + tuple(int(i) for i in mt.group(2).split(","))
                factors.append((key, int(mt.group(3) or 1)))
            else:
                coeff = F.parse(part)
        if sign == "-":
            coeff = F.norm(-coeff)
        terms.append((coeff, factors))
    return terms


def eval_commutative(F: Field, terms: list, point: dict):
    acc = F.zero()
    for coeff, factors in terms:
        prod = coeff
        for key, e in factors:
            prod = prod * point[key] ** e
        acc = F.norm(acc + prod)
    return acc


def generic_point(F: Field, rng, n: int, m: int) -> tuple:
    """A random value for every z[j,i] and x[j,k,i], plus the matrices
    those values fill."""
    point = {}
    mats = []
    for i in range(1, m + 1):
        mat = zeros(F, n)
        for j in range(1, n + 1):
            for k in range(j, n + 1):
                key = ("z", j, i) if j == k else ("x", j, k, i)
                mat[j - 1][k - 1] = point[key] = F.sample(rng)
        mats.append(mat)
    return point, mats


def matrices_from_point(F: Field, point: dict, n: int, m: int) -> list:
    """Matrices with the rendered variables of `point` set, others zero."""
    mats = [zeros(F, n) for _ in range(m)]
    for name, text in point.items():
        mt = _VAR.match(name)
        idx = [int(i) for i in mt.group(2).split(",")]
        if mt.group(1) == "z":
            j, i = idx
            mats[i - 1][j - 1][j - 1] = F.parse(text)
        else:
            j, k, i = idx
            mats[i - 1][j - 1][k - 1] = F.parse(text)
    return mats


def chain_coefficient(F: Field, poly: dict, slots: tuple, diags: list):
    """Coefficient polynomial of the arc chain `slots`, evaluated at the
    diagonal rows `diags` (one m-tuple per row of T_{k+1}).

    With only arc (j, j+1) of matrix slots[j-1] nonzero, entry (1, k+1)
    of a word's product sums over the ways to read the slots, in order,
    off increasing positions of the word; every other letter stays on the
    row reached so far and contributes that row's diagonal value.  dp[j]
    is the sum over placements of the first j slots in the prefix read."""
    k = len(slots)
    total = F.zero()
    for word, c in poly.items():
        dp = [F.one()] + [F.zero()] * k
        for letter in word:
            dp = [F.norm(dp[j] * diags[j][letter - 1]
                         + (dp[j - 1] if j and letter == slots[j - 1] else 0))
                  for j in range(k + 1)]
        total = F.norm(total + c * dp[k])
    return total


# -- the image classification table ----------------------------------------------


def expected_classification(r: int, n: int) -> dict:
    """The five-case table: r = 0 dense in T_n; r = 1 the strictly upper
    band; 1 < r < n-1 dense in band r-1; r = n-1 the corner band; r >= n
    zero.  Cases are tried in that order."""
    if r == 0:
        case, band = "dense_full", -1
    elif r == 1:
        case, band = "equals_band", 0
    elif r < n - 1:
        case, band = "dense_in_band", r - 1
    elif r == n - 1:
        case, band = "equals_band", n - 2
    else:
        case, band = "zero", n - 1
    dim = (n - 1 - band) * (n - band) // 2
    return {"r": r, "n": n, "case": case, "band": band, "affine_dim": dim}


# -- finite-field enumeration --------------------------------------------------


def oracle_tuple_count(q: int, n: int, m: int) -> int:
    return q ** (m * n * (n + 1) // 2)

