"""Identity testing, the order invariant, coefficient polynomials, and the
five-case image classification for upper triangular evaluations.

Identity testing is symbolic: p is counted as an identity of size n when
every entry of its generic evaluation is the zero polynomial.  Over Q this
decides identity for all fields of characteristic zero; over a prime base
field it decides identity for the infinite extensions of F_p (a small base
field itself may satisfy extra pointwise identities that the symbolic test
deliberately ignores).

The test reads p's own live-slot index (triangular.live_slots, kept in
p.index), not a generic evaluation.  Entry (s, t) of the
generic evaluation sums, over increasing paths s -> t and slot tuples, a
coefficient polynomial at the path's rows times that path's own arc
monomial, so no two terms cancel: p vanishes on size n iff p(z), the
0-slot polynomial, is zero and no k-slot tuple with k <= n-1 is live.
exact_order(p, below) is the one order query on the index: it returns
the order r when r < below and None otherwise, so p is an identity of
size n iff exact_order(p, n) is None, and a caller that knows n searches
no slot tuple of length n or more.  classify, coeff_poly and leading_tuples
read the index too; only order probes generic evaluations, the entry
maps {(j, k): CPolynomial} of generic_evaluate, since its report names a
nonzero generic entry and samples a point of that entry polynomial.

Each polynomial keeps its own index (NcPolynomial.index); requests share
one through the CLI's shared parse (freealg.shared_parse), whose cache
statistics coeff_poly.cache_info reports.  order's generic evaluations
are not cached.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cpoly import CPolynomial, render_var
from .errors import OrderMismatch, VariableOutOfRange, ZeroInput
from .freealg import NcPolynomial, shared_parse
from .triangular import generic_evaluate, index_poly, live_slots

_ORDER_SAMPLES = 200     # witness points order() tries


def coeff_poly(p: NcPolynomial, slots: tuple) -> CPolynomial:
    """Coefficient polynomial of the arc chain with the given slots, read
    from the live-slot index of p (zero when the tuple is not listed)."""
    k = len(slots)
    if k < 1:
        raise OrderMismatch("slot tuple must be nonempty")
    for i in slots:
        if not (1 <= i <= p.nvars):
            raise VariableOutOfRange(f"slot {i} outside 1..{p.nvars}")
    return index_poly(p.field, live_slots(p, k).get(slots, ()))


# a hit is a request whose polynomial, and its index, were already built
coeff_poly.cache_info = shared_parse.cache_info


@dataclass
class OrderReport:
    r: int | None          # None when the cap was hit
    max_n: int
    witness_entry: tuple | None   # (j, k) of the generic evaluation at size r+1
    witness_point: dict | None    # VarKey -> value, makes the entry nonzero

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
    for r in range(max_n + 1):
        generic = generic_evaluate(p, r + 1)
        if generic:
            break
    else:
        return OrderReport(None, max_n, None, None)
    pos = min(generic, key=lambda jk: (jk[1] - jk[0], jk[0]))
    poly = generic[pos]
    point = None
    for _ in range(_ORDER_SAMPLES):
        cand = {v: p.field.sample(rng, sample_height)
                for v in sorted(poly.variables())}
        if not p.field.is_zero(poly.eval_full(cand)):
            point = cand
            break
    return OrderReport(r, max_n, pos, point)


def exact_order(p: NcPolynomial, below: int | None = None) -> int | None:
    """order(p).r read off the live-slot index, with no generic
    evaluation, when it is below `below`; None when it is not, that is
    when p is an identity of size `below`.  Only slot tuples shorter
    than `below` are searched.  The default, deg p + 1, always resolves
    the order, since a longest word w of p is live as the slot tuple w,
    with p's coefficient of w.  ZeroInput for the zero polynomial."""
    if p.is_zero():
        raise ZeroInput("the zero polynomial has no order")
    if below is None:
        below = p.degree() + 1
    return next((k for k in range(min(below, p.degree() + 1))
                 if live_slots(p, k)), None)


def leading_tuples(p: NcPolynomial, r: int) -> list[tuple]:
    """All r-tuples of slots with nonzero coefficient polynomial, in
    lexicographic order.  Nonempty whenever ord(p) = r >= 1, and empty
    for r past the longest live tuple."""
    if r < 1:
        raise OrderMismatch("leading tuples need order at least 1")
    return list(live_slots(p, r))


@dataclass
class Classification:
    case: str            # dense_full | equals_band | dense_in_band | zero
    r: int | None        # None when only "r > n" is known
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


def classify(p: NcPolynomial, n: int) -> Classification:
    """Image shape of p on size-n upper triangular matrices by (r, n).

    r=0: dense in the whole algebra.  r=1: the image IS the strictly upper
    band.  1 < r < n-1: dense in band r-1.  r = n-1: the image IS the top
    corner band.  r >= n: zero.  The case checks run in that order, which
    settles the overlaps (r=1, n=2 hits the r=1 case).  The order is
    searched up to n, so r > n reads as None ("cap").
    """
    if p.is_zero():
        raise ZeroInput("cannot classify the zero polynomial")
    if n < 1:
        raise ZeroInput("n must be at least 1")
    r = exact_order(p, n + 1)
    if r is None:
        return Classification("zero", None, n, n - 1, 0)
    if r == 0:
        return Classification("dense_full", 0, n, -1, _dim_of_band(n, -1))
    if r == 1:
        return Classification("equals_band", 1, n, 0, _dim_of_band(n, 0))
    if 1 < r < n - 1:
        return Classification("dense_in_band", r, n, r - 1, _dim_of_band(n, r - 1))
    if r == n - 1:
        return Classification("equals_band", r, n, n - 2, _dim_of_band(n, n - 2))
    return Classification("zero", r, n, n - 1, 0)
