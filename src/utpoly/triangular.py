"""Upper triangular matrices and evaluation of free polynomials on them.

Matrices are sparse maps {(j,k): value} with 1 <= j <= k <= n over a
concrete field, the only kind a file holds and the routes take.  The
generic evaluation is no matrix: generic_evaluate returns its entry map
{(j, k): CPolynomial}, which matrix_json renders for output.  Two
independent evaluation routes are kept side by side on purpose:

  * evaluate             folds matrix products entry by entry,
  * evaluate_structured  rebuilds each entry from strictly increasing
    index paths and cached coefficient polynomials (structured_entry).

The coefficient polynomials come from placement counting over the words
of p (live_slots), so the structured route runs no matrix product and
shares nothing with the direct route beyond field arithmetic.  Their
agreement is a strong end-to-end check and is exercised by tests; do
not collapse one into the other.  structured_entry is the one walk over
an entry's (path, live tuple) terms: evaluate_structured sums them at
matrix entries, and the exact-field witness sweep splits them into the
slope and offset of the entry's fresh variable.  The index has one form,
the one the walk reads: a live tuple's coefficient polynomial as terms
whose factors z[l, i]^e are (l - 1, i - 1, e), so a term takes row l's
value straight from the path's rows.  index_poly makes the CPolynomial
a reader needs (analysis.coeff_poly), and row_values binds its rows
z[l, *] to matrix rows for eval_full, as the solver's diagonal search
and order-0 slot choice do.

evaluate walks p's words in p.terms order with a stack of the previous
word's prefix products (_word_products), so a word costs only the
letters after its longest common prefix with the word before it; each
product is still the same left fold, so the result is bit for bit that
of folding every word from scratch.  Products run through one kernel,
_product, of which UTMatrix.__matmul__ is a thin call: the left factor
is a raw entry map, the right one the matrix by rows (_rows), each row
its present entries in ascending k, so the kernel visits entries of the
left factor, then k, in the order a probe of every (l, k) would, and
takes each position from one table per size (_cells).  A word's first
letter enters as an entry map and every later letter as rows, each built
once per evaluation, as the factors never change during the fold; the
fold builds no matrix per product, since _check_tuple has fixed one
size and one field for every factor.  Over Q each factor enters as an
integer entry map over one denominator (_integer_entries), its rows
carrying that denominator, and a product carries the product of its
factors' denominators, so no Fraction is made inside a product.  Each
word's coefficient is then applied and summed in one pass with two zero
filters: a term that is zero is dropped, and an entry whose sum is zero
leaves the result, to re-enter at the end if a later word gives it a
term.  C's float bits and the
order of the result's entries are thus those of multiplying each word's
product by its coefficient and adding the products one by one, dropping
zeros each time.  Over Q that pass runs on integers: every sum is kept
over one running denominator, a multiple of each word's denominator so
far (the coefficient's times the word's factors'), which grows to the
lcm with a word's denominator that does not divide it, the sums
rescaled with it.  A term or a sum is zero
exactly when its Fraction is, so the entries and their order are those
of the Fraction pass, and one Fraction is built per entry of the result.

Both routes read a value only through arithmetic (+, * and ** by an
int, % p) and the zero filter (desc.nonzero, v % p or None over F_p),
which decides which entries and terms exist; they never branch on a
value otherwise.  So they run unchanged on any value type with those
operations: oracle-enum evaluates a chunk of tuples at once with each
matrix entry a lane vector, one lane per tuple, whose zero filter drops
only a vector that is zero in every lane.

generic_evaluate is p at the generic tuple, whose entries are single
variables with coefficient one.  A product of generic matrices has, in
entry (j, k), one monomial per weakly increasing row path from j to k,
the path being readable from the monomial (its x variables are the
arcs, its z exponents per row the stays), so every coefficient is one
and no two paths meet.  generic_evaluate therefore keeps a word product
as {(j, k): [monomial, ...]} with no coefficients, each monomial one int
that packs its exponent vector.  Only the u letters p holds get fields,
laid out in the variables' key order.  Row l has one index field for
all its x[l, k, i]: a weakly increasing path leaves row l at most once,
so at most one of them divides a monomial, and the field holds 1 + its
place among the (n - l) * u in (k, i) order, or 0.  Above every index
field, z[l, i] gets the bits of the most times a word of p holds letter
i, which bounds its exponent.  So no addition ever carries out of a
field, and a monomial takes about n log2(n u) + n u log2(deg p) bits,
not one bit per variable; a layout past _MAX_PACKED_BITS is refused
before any table is built.  One step "times generic matrix i" adds to
each monomial of entry (j, l) the int of z[l, i] (k = l) or of
x[l, k, i] (k > l), visiting entries, k and monomials in _product's
order, so term order (C's summation order downstream) is that of the
matrix fold; and as the packing is one to one, every dict operation
happens in the sequence it would on the monomials themselves.  Field
arithmetic starts at the end of a word: its coefficient times one,
added into the entry's sum with evaluate's two zero filters.  Over Q
those sums run on integers, each coefficient scaled by the lcm of p's
coefficient denominators, and each term is divided once when the entry
polynomials are built.  Each monomial of the result is decoded once,
into (key, exponent) pairs made once per call, an entry's packed map
dropped as its polynomial is built: fields are read from the top and
the pairs reversed, so they come out in key order, as CPolynomial keeps
them.  This is still a matrix fold over the words of
p, sharing their prefix products through the same stack as evaluate;
it reads nothing from live_slots, so the structured route stays an
independent check of it.

This module holds no cache.  live_slots keeps p's index by k on p
itself (p.index), built from p's own words in p.terms order, which over
C sets its float bits; so a warm index is always the one a fresh build
gives.  Requests share an index by sharing the polynomial
(freealg.shared_parse).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import attrgetter

from .cpoly import CPolynomial, diag_var, entry_var
from .errors import (ArityMismatch, FieldMismatch, ParseError, ResourceLimit,
                     SizeMismatch)
from .fields import FieldDescriptor


def _json_int(value) -> int:
    """A size or index read from JSON, which must be a JSON number with
    an integral value: an int, or a float such as 2.0.  ValueError for
    anything else int() would take: a bool, a string ("1_0", " 1 ", "2"),
    a float with a fractional part."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{value!r} is not a JSON integer")


def matrix_json(n: int, ring: str, entries: dict, render) -> dict:
    """The JSON object of an entry map of size n: a field matrix's, or
    generic_evaluate's with ring "poly" and render CPolynomial.render."""
    return {"n": n, "ring": ring,
            "entries": [{"j": j, "k": k, "value": render(v)}
                        for (j, k), v in sorted(entries.items())]}


class _FieldKind:
    kind = "field"


class UTMatrix:
    __slots__ = ("desc", "n", "entries")
    # only bench/tracer.py reads it, naming triangular.evaluate's metrics by
    # mats[0].ring.kind, until the bench pins no library name (ROADMAP)
    ring = _FieldKind

    def __init__(self, desc: FieldDescriptor, n: int, entries: dict):
        for j, k in entries:
            if not (1 <= j <= k <= n):
                raise SizeMismatch(f"entry ({j},{k}) outside upper triangle of size {n}")
        self.desc = desc
        self.n = n
        self.entries = UTMatrix._own(desc, n, entries).entries

    @classmethod
    def _own(cls, desc: FieldDescriptor, n: int, entries: dict) -> "UTMatrix":
        """A matrix built from entries of matrices of size n, whose
        positions are in the upper triangle by construction: the zero
        filter runs, the position check does not."""
        nonzero = desc.nonzero
        clean = {}
        for pos, v in entries.items():
            v = nonzero(v)
            if v is not None:
                clean[pos] = v
        return cls._of(desc, n, clean)

    @classmethod
    def _of(cls, desc: FieldDescriptor, n: int, entries: dict) -> "UTMatrix":
        """A matrix holding entries as given: in the upper triangle of
        size n, nonzero and at rest."""
        out = cls.__new__(cls)
        out.desc = desc
        out.n = n
        out.entries = entries
        return out

    def entry(self, j: int, k: int):
        v = self.entries.get((j, k))
        return self.desc.zero() if v is None else v

    def _check(self, other: "UTMatrix"):
        if self.n != other.n:
            raise SizeMismatch(f"sizes {self.n} and {other.n}")
        if not self.desc.same_field(other.desc):
            raise FieldMismatch("matrices over different fields")

    def __matmul__(self, other):
        self._check(other)
        n = self.n
        return UTMatrix._of(self.desc, n, _product(self.entries, _rows(other.entries, n),
                                                   _cells(n), self.desc))

    def in_band(self, t: int) -> bool:
        """True when every entry with k - j <= t vanishes.  Band -1 is the
        whole algebra, band 0 the strictly upper matrices, band n-1 zero."""
        return all(k - j > t for j, k in self.entries)

    def band_level(self) -> int:
        """Largest t with the matrix in band t (n-1 for the zero matrix)."""
        if not self.entries:
            return self.n - 1
        return min(k - j for j, k in self.entries) - 1

    def eq(self, other: "UTMatrix") -> bool:
        """Equality entry by entry: over C, a - b passes no zero filter, so
        within eps.  Over Q and F_p entries at rest are canonical and
        zero-free, so the entry maps are equal exactly when the matrices
        are."""
        self._check(other)
        if self.desc.kind != "complex":
            return self.entries == other.entries
        nonzero = self.desc.nonzero
        return all(nonzero(self.entry(*pos) - other.entry(*pos)) is None
                   for pos in set(self.entries) | set(other.entries))

    def to_json(self) -> dict:
        return matrix_json(self.n, "field", self.entries, self.desc.render_value)

    @classmethod
    def from_json(cls, data: dict, desc: FieldDescriptor) -> "UTMatrix":
        """A field matrix over desc: no other ring kind is read."""
        try:
            n = _json_int(data["n"])
            kind = data.get("ring", "field")
            raw = data.get("entries", [])
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad matrix object: missing {exc}") from None
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"bad matrix size: {exc}") from None
        if not isinstance(raw, list):
            raise ParseError(f"matrix entries must be a list, got {raw!r}")
        if n < 1:
            raise ParseError(f"matrix size must be at least 1, got {n}")
        if kind != "field":
            raise ParseError(f"matrix ring {kind!r} is not read: a matrix "
                             f"file holds field matrices (\"ring\": \"field\")")
        entries = {}
        for item in raw:
            try:
                j, k = _json_int(item["j"]), _json_int(item["k"])
                text = item["value"]
            except (TypeError, KeyError) as exc:
                raise ParseError(f"bad matrix entry: missing {exc}") from None
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"bad matrix entry index: {exc}") from None
            if (j, k) in entries:
                raise ParseError(f"matrix entry ({j},{k}) is listed twice")
            if not isinstance(text, str):
                raise ParseError(f"matrix entry value must be a string, got {text!r}")
            entries[(j, k)] = desc.parse_literal(text)
        return cls(desc, n, entries)

    def __repr__(self):
        cells = ", ".join(f"({j},{k})={self.desc.render_value(v)}"
                          for (j, k), v in sorted(self.entries.items()))
        return f"UTMatrix(n={self.n}, {cells or '0'})"


# -- evaluation of free polynomials --------------------------------------------


# the most entries, m * n(n+1)/2, in a tuple of m matrices of size n that
# is evaluated or sought as a witness: tier-1 reaches 630 (the bound's own
# test aside), the golden corpus and the bench 112, CI's dense16 tuple 408
_MAX_TUPLE_ENTRIES = 10 ** 4


def check_tuple_entries(m: int, n: int) -> None:
    """ResourceLimit past _MAX_TUPLE_ENTRIES, before the products, walks
    and searches whose work grows faster in n than the tuple's entries."""
    entries = m * n * (n + 1) // 2
    if entries > _MAX_TUPLE_ENTRIES:
        raise ResourceLimit(f"a tuple of m = {m} matrices at n = {n} holds "
                            f"{entries} entries, past the limit of {_MAX_TUPLE_ENTRIES}")


def _check_tuple(p, matrices):
    if len(matrices) != p.nvars:
        raise ArityMismatch(f"{p.nvars} variables but {len(matrices)} matrices")
    if not matrices:
        raise ArityMismatch("cannot evaluate with an empty matrix tuple")
    first = matrices[0]
    for a in matrices:
        if a.n != first.n:
            raise SizeMismatch("matrices of mixed sizes")
        if not p.field.same_field(a.desc):
            raise FieldMismatch(f"matrices must be over {p.field.render()}, "
                                f"not {a.desc.render()}")
    check_tuple_entries(len(matrices), first.n)
    return first.desc


def _word_products(p, firsts, factors, times):
    """(coefficient, product) for each word i_1..i_w of p, in p.terms
    order, the product being the left fold of times over firsts[i_1 - 1],
    factors[i_2 - 1], ..., factors[i_w - 1].  A stack keeps the prefix
    products of the previous word, so a word costs only the letters after
    its longest common prefix with it; each product is still the same
    left fold."""
    stack: list = []       # stack[d - 1]: the product of the first d letters
    prev: tuple = ()
    for word, coeff in p.terms.items():
        shared = 0
        for a, b in zip(word, prev):
            if a != b:
                break
            shared += 1
        del stack[shared:]
        if not stack:
            stack.append(firsts[word[0] - 1])
        for i in word[len(stack):]:
            stack.append(times(stack[-1], factors[i - 1]))
        prev = word
        yield coeff, stack[-1]


def _rows(entries: dict, n: int) -> list:
    """rows[l]: the (k, value) pairs of row l of a size-n entry map,
    present entries only, in ascending k (rows[0] is empty)."""
    rows: list = [[] for _ in range(n + 1)]
    for l, k in sorted(entries):
        rows[l].append((k, entries[l, k]))
    return rows


def _cells(n: int) -> list:
    """cells[j][k]: the position (j, k) of size n, made once, so that a
    product builds no position of its own."""
    return [[(j, k) for k in range(n + 1)] for j in range(n + 1)]


def _product(a: dict, rows: list, cells: list, desc: FieldDescriptor) -> dict:
    """The entry map of the product of the entry map a and a matrix given
    by its _rows over desc, positions taken from _cells: entries of a,
    then k, in visiting order, zeros dropped."""
    entries: dict = {}
    get = entries.get
    for (j, l), x in a.items():
        cell = cells[j]
        for k, y in rows[l]:
            pos = cell[k]
            s = get(pos)
            entries[pos] = x * y if s is None else s + x * y
    nonzero = desc.nonzero
    return {pos: w for pos, v in entries.items() if (w := nonzero(v)) is not None}


def _integer_entries(entries: dict) -> tuple:
    """(integer entry map, d): rational entries as integers over one
    denominator d, the lcm of theirs."""
    d = lcm(*(v.denominator for v in entries.values()))
    return {pos: v.numerator * (d // v.denominator) for pos, v in entries.items()}, d


def evaluate(p, matrices) -> UTMatrix:
    """Evaluate p at a tuple of upper triangular matrices: the words'
    products through _product; over Q the sums run on integers over one
    running denominator and one Fraction is built per entry of the
    result.  See the module docstring."""
    desc = _check_tuple(p, matrices)
    n = matrices[0].n
    cells = _cells(n)
    acc: dict = {}
    rational = desc.kind == "rational"
    if rational:
        firsts = [_integer_entries(a.entries) for a in matrices]
        factors = [(_rows(ints, n), d) for ints, d in firsts]
        # every sum in acc is an integer over common; grown word by word,
        # not the lcm of all words up front, it keeps early sums small
        common = 1

        def times(a, b):
            return _product(a[0], b[0], cells, desc), a[1] * b[1]

        def terms(c, product):
            nonlocal common
            den = c.denominator * product[1]
            if common % den:
                grown = lcm(common, den)
                rescale = grown // common
                for pos in acc:
                    acc[pos] *= rescale
                common = grown
            scale = c.numerator * (common // den)
            return [(pos, scale * v) for pos, v in product[0].items()]
    else:
        firsts = [a.entries for a in matrices]
        factors = [_rows(a, n) for a in firsts]

        def times(a, b):
            return _product(a, b, cells, desc)

        def terms(c, product):
            return [(pos, c * v) for pos, v in product.items()]

    # a zero term is dropped, then a zero sum
    nonzero = desc.nonzero
    for coeff, product in _word_products(p, firsts, factors, times):
        for pos, v in terms(coeff, product):
            v = nonzero(v)
            if v is None:
                continue
            if pos in acc:
                v = nonzero(acc[pos] + v)
                if v is None:
                    del acc[pos]
                    continue
            acc[pos] = v
    if rational:
        acc = {pos: Fraction(v, common) for pos, v in acc.items()}
    return UTMatrix._of(desc, n, acc)


# a Q value as the index and the walk keep it
_pair = attrgetter("numerator", "denominator")


_UNREAD = object()      # an arc entry the walk has not read yet


# a packed monomial of more bits is refused before any table is built:
# each would take over 1 KiB, and the steps of row l's index field take
# its offset in bits for each of its (n - l) * u arcs, so the tables grow
# as n^3.  Just under the bound, generic_evaluate of x1+x2 at n = 700
# (8076 bits) takes about 3.5 s and 555 MB
_MAX_PACKED_BITS = 1 << 13

# the most monomials one product of generic matrices may hold: x1*x2 at
# n = 400 passes it in its first product
_MONOMIAL_BUDGET = 10 ** 6

# the most letters live_slots may visit: seven commutators at k = 7 visit
# 6.15 M in about 5 s; x1^400 at k = 2 would visit 31.9 M, about 6.2 s
_MAX_SLOT_VISITS = 10 ** 7


def generic_evaluate(p, n: int) -> dict:
    """p at the generic tuple of size n as its entry map {(j, k):
    CPolynomial}, nonzero entries only, with no field arithmetic inside
    a word: see the module docstring.  ResourceLimit before the fold when
    a product would pass _MONOMIAL_BUDGET monomials.  Not cached: a cache
    served 31 of 768 calls in 12 witness and 20 symbolic benchmark rounds."""
    desc = p.field
    # a monomial is one int packing its exponent vector, fields in key
    # order for the u letters p holds: per row l an index field, 1 + the
    # place of its one x[l, k, i] among row l's (n - l) * u in (k, i)
    # order, or 0; then per z[l, i] the bits of most[i], the most times a
    # word of p holds letter i
    most: dict = {}
    for word in p.terms:
        for i in set(word):
            most[i] = max(most.get(i, 0), word.count(i))
    used = sorted(most)
    u = len(used)
    xstart = []          # xstart[l - 1]: the lowest bit of row l's x field
    width = 0
    for l in range(1, n + 1):
        xstart.append(width)
        width += ((n - l) * u).bit_length()
    zstart = {}          # (l, i) -> the lowest bit of z[l, i]'s field
    for l in range(1, n + 1):
        for i in used:
            zstart[l, i] = width
            width += most[i].bit_length()
    if width > _MAX_PACKED_BITS:
        raise ResourceLimit(
            f"generic evaluation at n = {n} packs a monomial into {width} "
            f"bits, past the limit of {_MAX_PACKED_BITS}")
    # products only grow along a word, and a word of L letters makes one
    # monomial per row sequence l_0 <= ... <= l_L: C(L + n, n - 1) of them
    budget, longest = _MONOMIAL_BUDGET, max(map(len, p.terms), default=0)
    if longest >= 2 and comb(longest + n, n - 1) > budget:
        raise ResourceLimit(f"symbolic matrix grew past {budget} monomials")
    # rows[i - 1][l]: (k, the step of entry (l, k) of generic matrix i), k >= l, i in used
    rows = {i - 1: {l: [(l, 1 << zstart[l, i])]
                    + [(k, ((k - l - 1) * u + f + 1) << xstart[l - 1])
                       for k in range(l + 1, n + 1)]
                    for l in range(1, n + 1)}
            for f, i in enumerate(used)}
    letters = {i: {(l, k): [s] for l, row in by_row.items() for k, s in row}
               for i, by_row in rows.items()}

    def times(prod, row):
        # _product's visiting order, so its term order
        out = {}
        for (j, l), monos in prod.items():
            for k, s in row[l]:
                ext = [mo + s for mo in monos]
                pos = (j, k)
                if pos in out:
                    out[pos] += ext
                else:
                    out[pos] = ext
        return out

    nonzero = desc.nonzero
    if desc.kind == "rational":
        # the sums run on integers, each coefficient times den, the lcm of
        # p's coefficient denominators; a term is divided once, at the end
        den = lcm(*(c.denominator for c in p.terms.values()))
        zero = 0

        def weight(c):
            return c.numerator * (den // c.denominator)
    else:
        den = None
        zero, one = desc.zero(), desc.one()

        def weight(c):
            return c * one    # the term evaluate applies

    sums: dict = {}      # position -> {monomial: coefficient}, in evaluate's order
    for coeff, prod in _word_products(p, letters, rows, times):
        v = weight(coeff)   # nonzero, as p's coefficients are
        for pos, monos in prod.items():
            terms = sums.get(pos)
            if terms is None:
                sums[pos] = dict.fromkeys(monos, v)
                continue
            for mo in monos:
                total = nonzero(terms.get(mo, zero) + v)
                if total is None:
                    terms.pop(mo, None)
                else:
                    terms[mo] = total
            if not terms:
                del sums[pos]

    # each monomial is decoded once, top field first: bit b lies in the
    # field fields[b] = (its lowest bit, its (key, e) pairs by value, the
    # mask of the bits below it), made once per call
    fields: list = [None] * width
    for l in range(1, n):
        start, stop = xstart[l - 1], xstart[l]
        field = (start, [None] + [(entry_var(l, k, i), 1)
                                  for k in range(l + 1, n + 1) for i in used],
                 (1 << start) - 1)
        fields[start:stop] = [field] * (stop - start)
    for (l, i), start in zstart.items():
        w = most[i].bit_length()
        fields[start:start + w] = [(start, [(diag_var(l, i), e) for e in range(1 << w)],
                                    (1 << start) - 1)] * w

    def decode(mo):
        pairs = []
        while mo:
            start, by_value, below = fields[mo.bit_length() - 1]
            pairs.append(by_value[mo >> start])
            mo &= below
        pairs.reverse()     # key order
        return tuple(pairs)

    out = {}
    for pos in list(sums):
        terms = sums.pop(pos)    # an entry's packed map goes as it is decoded
        if den is None:
            out[pos] = CPolynomial(desc, {decode(mo): c for mo, c in terms.items()})
        else:
            out[pos] = CPolynomial(desc, {decode(mo): Fraction(c, den)
                                          for mo, c in terms.items()})
    return out


def live_slots(p, k: int) -> dict:
    """Read-only live-slot index of p for k: {slots: terms} over the
    k-slot tuples with a nonzero coefficient polynomial, in lexicographic
    order, its terms in term order as (coefficient, factors): the
    coefficient at rest, a (numerator, denominator) pair over Q, and
    factors z[l, i]^e in key order as (l - 1, i - 1, e).

    The coefficient polynomial of slots (i_1..i_k), in z[1..k+1, *],
    multiplies x[1,2,i_1]*...*x[k,k+1,i_k] in entry (1, k+1) of the
    generic evaluation at size k+1 once every other strictly-upper
    variable is zero.  One pass over the words visits placements:
    positions q_1 < ... < q_k, whose letters are the slots, every other
    letter giving z[row, letter] with row 1 + the placed letters before
    it.  Row l thus has degree q_l - q_{l-1} - 1, so the monomial fixes
    the placement: one placement, one (slots, monomial) key, and each
    adds the word's coefficient times one, as the generic fold does.
    Visiting placements latest first and words in p.terms order repeats
    the field operations of the generic evaluation, so each polynomial
    matches it bit for bit, term order (eval_full's summation order over
    C) included.  A build that would visit more than _MAX_SLOT_VISITS
    letters, sum over the words w of C(|w|, k) * |w|, is refused first.
    """
    index = p.index
    if k in index:
        return index[k]
    if k > p.degree():      # no placement; combinations would allocate k indices
        index[k] = {}
        return index[k]
    visits = sum(comb(len(word), k) * len(word) for word in p.terms)
    if visits > _MAX_SLOT_VISITS:
        raise ResourceLimit(
            f"the live-slot index at k = {k} would visit {visits} letters "
            f"of placements, past the limit of {_MAX_SLOT_VISITS}")
    desc = p.field
    zero, one = desc.zero(), desc.one()
    sums: dict = {}          # slots -> {((l - 1, i - 1), e), ...: coefficient}
    for word, c in p.terms.items():
        v = c * one
        for rev in combinations(range(len(word) - 1, -1, -1), k):
            pos = rev[::-1]
            z = {}
            row = 0
            for q, letter in enumerate(word):
                if row < k and q == pos[row]:
                    row += 1
                else:
                    key = (row, letter - 1)
                    z[key] = z.get(key, 0) + 1
            terms = sums.setdefault(tuple(word[q] for q in pos), {})
            mono = tuple(sorted(z.items()))
            total = terms.get(mono, zero) + v
            if desc.is_zero(total):
                # a cancelled monomial leaves the polynomial, as in a sum
                # of polynomials, and re-enters at the end if met again
                terms.pop(mono, None)
            else:
                terms[mono] = total
    read = _pair if desc.kind == "rational" else desc.canonical
    out = index[k] = {
        slots: tuple((read(c), tuple((l, i, e) for (l, i), e in mono))
                     for mono, c in sums[slots].items())
        for slots in sorted(sums) if sums[slots]}
    return out


def index_poly(desc: FieldDescriptor, terms: tuple) -> CPolynomial:
    """The coefficient polynomial of a live-slot index entry's terms
    (live_slots), in z[l, i], its terms in the same order."""
    rational = desc.kind == "rational"
    return CPolynomial(desc, {
        tuple((diag_var(l + 1, i + 1), e) for l, i, e in factors):
            Fraction(*c) if rational else c
        for c, factors in terms})


def evaluate_structured(p, matrices) -> UTMatrix:
    """Entrywise evaluation through coefficient polynomials.

    Diagonal entries are the scalar values p(a_11, ..., a_nn); entry
    (s, t) above the diagonal is structured_entry's sum with the arc
    entries read off the matrices.
    """
    desc = _check_tuple(p, matrices)
    n = matrices[0].n
    diags = [tuple(a.entry(j, j) for a in matrices) for j in range(1, n + 1)]
    entries = {(s, s): p.eval_scalar(diags[s - 1]) for s in range(1, n + 1)}
    arcs = [a.entries for a in matrices]

    def arc(pos, i):
        return arcs[i - 1].get(pos)

    for s in range(1, n + 1):
        for t in range(s + 1, n + 1):
            entries[(s, t)] = structured_entry(p, s, t, diags, arc)[1]
    return UTMatrix._own(desc, n, entries)


def row_values(diags, rows) -> dict:
    """The assignment binding a coefficient polynomial's diagonal rows to
    matrix rows: z[l, i] -> diags[rows[l - 1] - 1][i - 1], where
    diags[j - 1] is matrix row j's tuple of diagonal values."""
    return {diag_var(l, i): v for l, row in enumerate(rows, 1)
            for i, v in enumerate(diags[row - 1], 1)}


def structured_entry(p, s: int, t: int, diags, arc, fresh=None) -> tuple:
    """(fresh sum, other sum) of the terms of entry (s, t), s < t.

    A term is a strictly increasing path s = j_1 < ... < j_{k+1} = t with
    a live k-slot tuple (i_1..i_k) of p: the tuple's index terms
    (live_slots) at the path's rows of diags, row j's diagonal values
    being diags[j - 1], times arc((j_l, j_{l+1}), i_l) for each arc, and
    skipped when arc returns None.  A path uses each arc once, so a term
    holds fresh at most once: the terms that slot it on its arc go,
    without that factor, to the first sum, all others to the second.

    Terms are summed k ascending, interior rows in combinations() order,
    tuples in index order.  A term reads its arcs in path order up to the
    first None, and arc is called only on an (arc, letter) no term of the
    entry has read yet, so it sees the pairs, in the same first-call
    order, that calls per term would show it.  Over F_p and C a term is
    eval_full's sum over the index terms, in term order, of c * v_1**e_1
    * v_2**e_2 ..., put through canonical and times one * a_1 * a_2 ...,
    so C's float bits and the operations on oracle-enum's lane vectors
    are those of eval_full term by term.  Over Q each value is read as
    (numerator, denominator), products and sums run on integers over one
    running denominator, and each sum becomes one Fraction at the end.
    """
    desc = p.field
    rational = desc.kind == "rational"
    read = _pair if rational else (lambda v: v)
    index = p.index
    fresh_arc, star = (fresh[1:3], fresh[3]) if fresh else (None, None)
    row_of = {j: tuple(map(read, diags[j - 1])) for j in range(s, t + 1)}
    arc_values: dict = {}     # arc -> its value by letter, or _UNREAD
    width = p.nvars + 1
    one, zero, canonical = desc.one(), desc.zero(), desc.canonical
    fresh_sum = total = zero
    # over Q: the sums as numerator over denominator
    fresh_num = total_num = 0
    fresh_den = total_den = 1
    for k in range(1, t - s + 1):
        tuples = index[k] if k in index else live_slots(p, k)
        if not tuples:
            continue
        for interior in combinations(range(s + 1, t), k - 1):
            path = (s,) + interior + (t,)
            arcs = tuple(zip(path, path[1:]))
            at = arcs.index(fresh_arc) if fresh_arc in arcs else -1
            rows = [row_of[j] for j in path]
            cells = []
            for a in arcs:
                cell = arc_values.get(a)
                if cell is None:
                    cell = arc_values[a] = [_UNREAD] * width
                cells.append(cell)
            for slots, terms in tuples.items():
                hit = at >= 0 and slots[at] == star
                num = den = 1
                arc_val = one
                for l, i in enumerate(slots):
                    if hit and l == at:
                        continue
                    cell = cells[l]
                    v = cell[i]
                    if v is _UNREAD:
                        v = arc(arcs[l], i)
                        v = cell[i] = None if v is None else read(v)
                    if v is None:
                        break
                    if rational:
                        num *= v[0]
                        den *= v[1]
                    else:
                        arc_val = arc_val * v
                else:
                    if rational:
                        q_num, q_den = 0, 1
                        for (a, b), factors in terms:
                            for r, i, e in factors:
                                x, y = rows[r][i]
                                if e == 1:
                                    a *= x
                                    b *= y
                                else:
                                    a *= x ** e
                                    b *= y ** e
                            g = gcd(b, q_den)
                            q_num = q_num * (b // g) + a * (q_den // g)
                            q_den = q_den // g * b
                        num *= q_num
                        den *= q_den
                        if hit:
                            g = gcd(den, fresh_den)
                            fresh_num = fresh_num * (den // g) + num * (fresh_den // g)
                            fresh_den = fresh_den // g * den
                        else:
                            g = gcd(den, total_den)
                            total_num = total_num * (den // g) + num * (total_den // g)
                            total_den = total_den // g * den
                        continue
                    acc = zero
                    try:
                        for c, factors in terms:
                            prod = c
                            for r, i, e in factors:
                                prod = prod * rows[r][i] ** e
                            acc = acc + prod
                    except OverflowError:
                        raise ResourceLimit("a power over C is past the float range") from None
                    term = canonical(acc) * arc_val
                    if hit:
                        fresh_sum = fresh_sum + term
                    else:
                        total = total + term
    if rational:
        return Fraction(fresh_num, fresh_den), Fraction(total_num, total_den)
    return canonical(fresh_sum), canonical(total)
