"""Identity testing, the order invariant, coefficient polynomials, and the
five-case image classification for upper triangular evaluations.

Identity testing is symbolic: p is counted as an identity of size n when
every entry of its generic evaluation is the zero polynomial.  Over Q this
decides identity for all fields of characteristic zero; over a prime base
field it decides identity for the infinite extensions of F_p (a small base
field itself may satisfy extra pointwise identities that the symbolic test
deliberately ignores).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .cpoly import CPolynomial, diag_var, render_var
from .errors import (CapReached, InternalInconsistency, OrderMismatch,
                     VariableOutOfRange, ZeroInput)
from .freealg import NcPolynomial
from .triangular import generic_evaluate

_ORDER_SAMPLES = 200     # witness points order() tries


def is_identity(p: NcPolynomial, n: int) -> bool:
    """True iff every generic entry of p at size n vanishes identically."""
    return not generic_evaluate(p, n).entries


def _placement_counts(word: tuple, slots: tuple) -> dict:
    """Diagonal monomial -> number of placements of slots in word.

    A placement is a choice of positions q_1 < ... < q_k with
    word[q_l] = slots[l-1]; every other letter contributes z[row, letter],
    where row is 1 + the number of placed letters before it.  Placements
    are visited latest position first, which is the order in which the
    matrix product route first meets each monomial, so coefficient
    polynomials keep that term order (it fixes the summation order of
    eval_full over C).
    """
    k = len(slots)
    counts = {}
    for rev in combinations(range(len(word) - 1, -1, -1), k):
        pos = rev[::-1]
        if any(word[q] != i for q, i in zip(pos, slots)):
            continue
        z = {}
        row = 1
        for q, letter in enumerate(word):
            if row <= k and q == pos[row - 1]:
                row += 1
            else:
                key = diag_var(row, letter)
                z[key] = z.get(key, 0) + 1
        mono = tuple(sorted(z.items()))
        counts[mono] = counts.get(mono, 0) + 1
    return counts


@lru_cache(maxsize=16384)
def coeff_poly(p: NcPolynomial, slots: tuple) -> CPolynomial:
    """Coefficient polynomial of the arc chain with the given slots.

    For slots (i_1..i_k) this is the polynomial in diagonal variables
    z[1..k+1, *] multiplying x[1,2,i_1]*x[2,3,i_2]*...*x[k,k+1,i_k] in
    entry (1, k+1) of the generic evaluation at size k+1 once every other
    strictly-upper variable is set to zero.  It is read straight off the
    words of p by placement counting (see _placement_counts), so no
    matrix product is formed: each word adds its coefficient times the
    number of placements giving each diagonal monomial, in p.terms order,
    which repeats the field operations of the generic evaluation.
    """
    k = len(slots)
    if k < 1:
        raise OrderMismatch("slot tuple must be nonempty")
    for i in slots:
        if not (1 <= i <= p.nvars):
            raise VariableOutOfRange(f"slot {i} outside 1..{p.nvars}")
    desc = p.field
    zero = desc.zero()
    terms = {}
    for word, c in p.terms.items():
        for mono, count in _placement_counts(word, slots).items():
            v = c * desc.from_int(count)
            if desc.is_zero(v):
                continue
            v = terms.get(mono, zero) + v
            if desc.is_zero(v):
                # a cancelled monomial leaves the polynomial, as in a sum
                # of polynomials, and re-enters at the end if met again
                terms.pop(mono, None)
            else:
                terms[mono] = v
    q = CPolynomial(desc, terms)
    for v in q.variables():
        if v[0] != "z":
            raise InternalInconsistency(
                f"coefficient polynomial contains {render_var(v)}")
    return q


@dataclass
class OrderReport:
    r: int | None          # None when the cap was hit
    max_n: int
    witness_entry: tuple | None   # (j, k) in the generic matrix of size r+1
    witness_point: dict | None    # VarKey -> value, makes the entry nonzero
    witness_value: object = None

    @property
    def capped(self) -> bool:
        return self.r is None

    def to_json(self, desc) -> dict:
        out = {"r": "cap" if self.capped else self.r, "max_n": self.max_n}
        if self.witness_entry is not None:
            point = None
            if self.witness_point is not None:
                point = {render_var(k): desc.render_value(v)
                         for k, v in sorted(self.witness_point.items())}
            out["witness"] = {
                "n": self.r + 1,
                "entry": list(self.witness_entry),
                "point": point,
            }
        else:
            out["witness"] = None
        return out


def _probe(p: NcPolynomial, max_n: int) -> tuple:
    """(r, generic evaluation at size r+1) for the least size in
    1..max_n+1 at which p is not an identity; (None, None) if it is one
    at every size probed."""
    for n in range(1, max_n + 2):
        generic = generic_evaluate(p, n)
        if generic.entries:
            return n - 1, generic
    return None, None


def order(p: NcPolynomial, max_n: int | None = None,
          sample_height: int = 256) -> OrderReport:
    """Least r with p an identity of size r but not of size r+1.

    Probes sizes 1, 2, ... and stops at the first non-identity; identities
    are nested across sizes, so the first failure pins r exactly.  If every
    size through max_n + 1 is an identity the report carries r = None,
    meaning "at least max_n".  The witness is a nonzero generic entry at
    size r+1 plus, when sampling finds one, a concrete point where it is
    nonzero (over tiny prime fields every base-field point may vanish, in
    which case the point is left out and the entry polynomial stands alone).
    The point is drawn from a generator seeded with 0, _ORDER_SAMPLES
    tries at most, so every call gives the same report.
    """
    if p.is_zero():
        raise ZeroInput("the zero polynomial has no order")
    if max_n is None:
        max_n = p.degree() + 1
    if max_n < 1:
        raise ZeroInput("max_n must be at least 1")
    rng = random.Random(0)
    r, generic = _probe(p, max_n)
    if r is None:
        return OrderReport(None, max_n, None, None)
    pos = min(generic.entries, key=lambda jk: (jk[1] - jk[0], jk[0]))
    poly = generic.entries[pos]
    point = None
    value = None
    for _ in range(_ORDER_SAMPLES):
        cand = {v: p.field.sample(rng, sample_height)
                for v in sorted(poly.variables())}
        val = poly.eval_full(cand)
        if not p.field.is_zero(val):
            point, value = cand, val
            break
    return OrderReport(r, max_n, pos, point, value)


def exact_order(p: NcPolynomial, max_n: int | None = None) -> int:
    """order() when the caller needs the plain integer; CapReached otherwise."""
    rep = order(p, max_n)
    if rep.capped:
        raise CapReached(f"order not resolved up to {rep.max_n}", cap=rep.max_n)
    return rep.r


def leading_tuples(p: NcPolynomial, r: int) -> list[tuple]:
    """All r-tuples of slots with nonzero coefficient polynomial, in
    lexicographic order.  Nonempty whenever ord(p) = r >= 1; an empty
    result signals an order-computation bug, not bad input."""
    if r < 1:
        raise OrderMismatch("leading tuples need order at least 1")
    out = [slots for slots in product(range(1, p.nvars + 1), repeat=r)
           if not coeff_poly(p, slots).is_zero()]
    if not out:
        raise InternalInconsistency(
            f"no nonzero coefficient polynomial of length {r}")
    return out


@dataclass(frozen=True)
class BandIndexSet:
    """The off-diagonal positions between rows s and t whose jump is
    small enough to matter at order r: pairs (j,k) with s <= j < k <= t
    and (t-s) - (k-j) >= r-1."""
    s: int
    t: int
    r: int
    arc_support: frozenset


def band_sets(s: int, t: int, r: int) -> BandIndexSet:
    if not (1 <= s < t) or r < 1:
        raise ValueError(f"band_sets needs 1 <= s < t and r >= 1, got ({s},{t},{r})")
    support = frozenset((j, k) for j in range(s, t + 1)
                        for k in range(j + 1, t + 1)
                        if (t - s) - (k - j) >= r - 1)
    return BandIndexSet(s, t, r, support)


@dataclass
class Classification:
    case: str            # dense_full | equals_band | dense_in_band | zero
    r: int | None        # None when only "r >= n" is known
    n: int
    band: int
    affine_dim: int

    def to_json(self) -> dict:
        return {
            "r": "cap" if self.r is None else self.r,
            "n": self.n,
            "case": self.case,
            "band": self.band,
            "affine_dim": self.affine_dim,
        }


def _dim_of_band(n: int, band: int) -> int:
    return (n - 1 - band) * (n - band) // 2


def classify(p: NcPolynomial, n: int, max_n: int | None = None) -> Classification:
    """Image shape of p on size-n upper triangular matrices by (r, n).

    r=0: dense in the whole algebra.  r=1: the image IS the strictly upper
    band.  1 < r < n-1: dense in band r-1.  r = n-1: the image IS the top
    corner band.  r >= n: zero.  The case checks run in that order, which
    settles the overlaps (r=1, n=2 hits the r=1 case).
    """
    if p.is_zero():
        raise ZeroInput("cannot classify the zero polynomial")
    if n < 1:
        raise ZeroInput("n must be at least 1")
    if max_n is None:
        max_n = n
    r = _probe(p, max_n)[0]
    if r is None:
        # order unresolved; the zero case is still decidable from size n alone
        if n <= max_n + 1 or is_identity(p, n):
            return Classification("zero", None, n, n - 1, 0)
        raise CapReached(
            f"order not resolved up to {max_n} but below {n}", cap=max_n)
    if r == 0:
        return Classification("dense_full", 0, n, -1, _dim_of_band(n, -1))
    if r == 1:
        return Classification("equals_band", 1, n, 0, _dim_of_band(n, 0))
    if 1 < r < n - 1:
        return Classification("dense_in_band", r, n, r - 1, _dim_of_band(n, r - 1))
    if r == n - 1:
        return Classification("equals_band", r, n, n - 2, _dim_of_band(n, n - 2))
    return Classification("zero", r, n, n - 1, 0)
