"""Upper-triangular matrices and the two evaluation routes.

The direct route multiplies matrices; the structured route rebuilds each
entry from coefficient polynomials in the diagonals times arc products.
Both are checked against a third, test-local reference that sums over
nondecreasing index paths.  The generic evaluation, a fold with no field
arithmetic inside a word, and the direct route's shared prefix products
are checked against a fourth: one full matrix fold per word through a
test-local product (matmul_reference), not the direct route's kernel, at
generic entry maps built entry by entry.  Agreement of independently-coded routes
on random inputs is the core correctness check, so none of these tests
may be weakened to compare a route with itself.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import utpoly.triangular
from nc_terms import parts, plus
from utpoly.analysis import coeff_poly, exact_order, leading_tuples
from utpoly.cpoly import CPolynomial, _mono_mul, diag_var, entry_var
from utpoly.errors import (ArityMismatch, FieldMismatch, ParseError,
                           ResourceLimit, SizeMismatch, UtpolyError)
from utpoly.fields import FieldDescriptor, add_terms, mul_terms
from utpoly.freealg import NcPolynomial
from utpoly.solver import SolveOptions, build_sweep_plan_rn, solve_target
from utpoly.triangular import (UTMatrix, evaluate,
                               evaluate_structured, generic_evaluate,
                               live_slots, row_values, structured_entry)

Q = FieldDescriptor.parse("Q")
F7 = FieldDescriptor.parse("Fp:7")
C = FieldDescriptor.parse("C")


def mat(n, entries):
    return UTMatrix(Q, n, {pos: Fraction(v) for pos, v in entries.items()})


def ring_add(x, y):
    """x + y: field values by their operator, coefficient polynomials
    through add_terms, with the zero terms dropped after the step."""
    if isinstance(x, CPolynomial):
        return CPolynomial(x.field, add_terms(x.terms, y.terms, x.field.zero()))
    return x + y


def ring_mul(x, y):
    """x * y: field values by their operator, coefficient polynomials
    through mul_terms, with the zero terms dropped after the step."""
    if isinstance(x, CPolynomial):
        return CPolynomial(x.field, mul_terms(x.terms, y.terms, _mono_mul))
    return x * y


def const(like, c):
    """c beside the value like: c itself beside a field value, the
    constant polynomial c beside a coefficient polynomial."""
    return CPolynomial(like.field, {(): c}) if isinstance(like, CPolynomial) else c


def drop_zeros(desc, entries):
    """entries without their zeros: a coefficient polynomial with no
    terms, a field value that desc's zero filter drops."""
    out = {}
    for pos, v in entries.items():
        v = (v if v.terms else None) if isinstance(v, CPolynomial) else desc.nonzero(v)
        if v is not None:
            out[pos] = v
    return out


def add(desc, a, b):
    """Reference sum of two entry maps: entries added position by
    position, a zero sum dropped."""
    entries = dict(a)
    for pos, v in b.items():
        entries[pos] = ring_add(entries[pos], v) if pos in entries else v
    return drop_zeros(desc, entries)


def scale(desc, a, c):
    """Reference multiple c*a of an entry map, a zero term dropped."""
    return drop_zeros(desc, {pos: ring_mul(const(v, c), v) for pos, v in a.items()})


def matmul_reference(desc, n, a, b):
    """A test-local copy of the product of two entry maps of size n:
    entries of a, then k, in visiting order, running sums per position,
    then the zero filter."""
    entries = {}
    for (j, l), x in a.items():
        for k in range(l, n + 1):
            y = b.get((l, k))
            if y is not None:
                pos = (j, k)
                xy = ring_mul(x, y)
                entries[pos] = ring_add(entries[pos], xy) if pos in entries else xy
    return drop_zeros(desc, entries)


def word_product(desc, n, factors, word):
    """Reference fold of the products A_{i_1} ... A_{i_w} of entry maps,
    through matmul_reference, not the direct route's kernel."""
    acc = factors[word[0] - 1]
    for i in word[1:]:
        acc = matmul_reference(desc, n, acc, factors[i - 1])
    return acc


def evaluate_words(p, factors, n):
    """Reference for evaluate on entry maps of size n: one word_product
    per word, no sharing."""
    acc = {}
    for word, coeff in p.terms.items():
        acc = add(p.field, acc, scale(p.field, word_product(p.field, n, factors, word), coeff))
    return acc


def generic_matrix(desc, n, i):
    """The entry map of generic matrix i of size n: each entry its own
    variable."""
    one = desc.one()
    entries = {}
    for j in range(1, n + 1):
        entries[(j, j)] = CPolynomial(desc, {((diag_var(j, i), 1),): one})
        for k in range(j + 1, n + 1):
            entries[(j, k)] = CPolynomial(desc, {((entry_var(j, k, i), 1),): one})
    return entries


def generic_tuple(desc, n, m):
    return [generic_matrix(desc, n, i) for i in range(1, m + 1)]


def entry_maps(matrices):
    return [a.entries for a in matrices]


def bits(entries):
    """Entries with their term order and float bits (repr tells -0.0)."""
    return repr([(pos, list(v.terms.items()) if hasattr(v, "terms") else v)
                 for pos, v in entries.items()])


def word_product_paths(desc, n, factors, word):
    """Reference for word_product over field entry maps, rebuilt
    entrywise from nondecreasing index paths: entry (s,t) sums the arc
    products of all s = j_1 <= ... <= j_{w+1} = t."""
    w = len(word)
    entries = {}
    for s in range(1, n + 1):
        for t in range(s, n + 1):
            total = desc.zero()
            stack = [(s, 0, None)]
            # iterative DFS over path positions; value None means "empty product"
            while stack:
                j, step, val = stack.pop()
                if step == w:
                    if j == t:
                        total = total + (desc.one() if val is None else val)
                    continue
                a = factors[word[step] - 1]
                for nxt in range(j, t + 1):
                    f = a.get((j, nxt))
                    if f is None:
                        continue
                    stack.append((nxt, step + 1, f if val is None else val * f))
            entries[(s, t)] = total
    return drop_zeros(desc, entries)


def evaluate_paths(p, factors, n):
    """Reference for evaluate, with every word product from the paths."""
    acc = {}
    for word, coeff in p.terms.items():
        acc = add(p.field, acc, scale(p.field, word_product_paths(p.field, n, factors, word),
                                      coeff))
    return acc


def rand_matrix(desc, n, rng, height=9):
    return UTMatrix(desc, n, {
        (j, k): desc.sample(rng, height)
        for j in range(1, n + 1) for k in range(j, n + 1)})


def rand_poly(desc, rng, m, max_len=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = tuple(rng.randint(1, m) for _ in range(rng.randint(1, max_len)))
        terms[w] = desc.sample(rng, 9)
    terms = {w: c for w, c in terms.items() if not desc.is_zero(c)}
    if not terms:
        terms = {(1,): desc.one()}
    return NcPolynomial(desc, m, terms)


def test_matrix_square_hand_oracle():
    a = mat(2, {(1, 1): 2, (1, 2): 3, (2, 2): 5})
    sq = a @ a
    assert sq.eq(mat(2, {(1, 1): 4, (1, 2): 21, (2, 2): 25}))


def test_matrix_product_hand_oracle_3x3():
    a = mat(3, {(1, 1): 1, (1, 2): 2, (1, 3): 3, (2, 2): 4, (2, 3): 5, (3, 3): 6})
    b = mat(3, {(1, 1): 7, (1, 2): 8, (2, 2): 9, (2, 3): 1, (3, 3): 2})
    # row 1: (7, 8+18, 2+6) ; row 2: (0, 36, 4+10) ; row 3: (0, 0, 12)
    assert (a @ b).eq(mat(3, {(1, 1): 7, (1, 2): 26, (1, 3): 8,
                              (2, 2): 36, (2, 3): 14, (3, 3): 12}))


def test_matrix_addition_and_scaling():
    a = mat(2, {(1, 2): 3})
    b = mat(2, {(1, 1): 1, (1, 2): -3})
    assert add(Q, a.entries, b.entries) == {(1, 1): 1}
    assert scale(Q, a.entries, Fraction(1, 3)) == {(1, 2): 1}


def test_entry_bounds_checked():
    with pytest.raises(SizeMismatch):
        mat(2, {(2, 1): 1})
    with pytest.raises(SizeMismatch):
        mat(2, {(1, 3): 1})
    with pytest.raises(SizeMismatch):
        mat(2, {(1, 2): 1}).eq(mat(3, {(1, 2): 1}))


def test_band_predicates():
    strict = mat(3, {(1, 2): 1, (1, 3): 2})
    assert strict.in_band(0) and not strict.in_band(1)
    assert strict.band_level() == 0
    top = mat(3, {(1, 3): 5})
    assert top.band_level() == 1
    assert UTMatrix(Q, 3, {}).band_level() == 2
    assert UTMatrix(Q, 3, {}).in_band(2)
    full = mat(3, {(1, 1): 1})
    assert full.in_band(-1) and full.band_level() == -1


def test_json_roundtrip_field_ring():
    a = mat(3, {(1, 1): Fraction(1, 2), (1, 3): -4, (2, 3): 7})
    data = a.to_json()
    assert data["ring"] == "field"
    back = UTMatrix.from_json(data, Q)
    assert back.eq(a)


def test_json_roundtrip_prime_and_complex():
    a = UTMatrix(F7, 2, {(1, 2): F7.from_int(5)})
    assert UTMatrix.from_json(a.to_json(), F7).eq(a)
    b = UTMatrix(C, 2, {(1, 1): 1 + 2j, (1, 2): -0.5j})
    assert UTMatrix.from_json(b.to_json(), C).eq(b)


def test_json_bad_inputs():
    with pytest.raises(ParseError):
        UTMatrix.from_json({"entries": []}, Q)  # no n
    with pytest.raises(ParseError):
        UTMatrix.from_json({"n": 2, "ring": "nope", "entries": []}, Q)
    # symbolic matrices are output only: a poly matrix is refused by its
    # ring, before its entries are read
    with pytest.raises(ParseError, match="matrix ring 'poly' is not read"):
        UTMatrix.from_json({"n": 2, "ring": "poly", "entries": [
            {"j": 1, "k": 2, "value": 3}]}, Q)
    with pytest.raises(ParseError):
        UTMatrix.from_json({"n": 2, "entries": [{"j": 1, "k": 2}]}, Q)


@pytest.mark.parametrize("second", ["2", "0", "1/0", 3])
def test_json_repeated_entry(second):
    """A position listed twice is refused by its position, before the
    second value is read: one that would have replaced the first, one
    that is zero, one the field refuses, one that is not a string."""
    entries = [{"j": 1, "k": 1, "value": "5"}, {"j": 1, "k": 2, "value": "1"},
               {"j": 1, "k": 2, "value": second}]
    with pytest.raises(ParseError, match=r"^matrix entry \(1,2\) is listed twice$"):
        UTMatrix.from_json({"n": 2, "entries": entries}, Q)


def test_word_product_routes_agree_random():
    rng = random.Random(20)
    for desc in (Q, F7):
        for _ in range(30):
            n = rng.randint(1, 4)
            mats = entry_maps(rand_matrix(desc, n, rng) for _ in range(3))
            word = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            a = word_product(desc, n, mats, word)
            b = word_product_paths(desc, n, mats, word)
            assert UTMatrix(desc, n, a).eq(UTMatrix(desc, n, b)), (word, n, desc.render())


def test_evaluate_matches_hand_commutator():
    # [A, B] with A = diag(1, 0), B = 5*E12: AB - BA = 5*E12 - 0 = 5*E12... but
    # BA = 5*E12*diag -> (1,2) entry 5*0; AB -> 1*5.  [A,B] = 5*E12.
    p = NcPolynomial.parse("x1*x2 - x2*x1", Q)
    A = mat(2, {(1, 1): 1})
    B = mat(2, {(1, 2): 5})
    out = evaluate(p, [A, B])
    assert out.eq(mat(2, {(1, 2): 5}))


def test_evaluate_routes_agree_random():
    rng = random.Random(21)
    for desc in (Q, F7, C):
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(1, 3)
            p = rand_poly(desc, rng, m)
            mats = [rand_matrix(desc, n, rng) for _ in range(m)]
            direct = evaluate(p, mats)
            assert direct.eq(UTMatrix(desc, n, evaluate_paths(p, entry_maps(mats), n)))
            assert direct.eq(evaluate_structured(p, mats))


def test_structured_route_runs_no_matrix_product(monkeypatch):
    rng = random.Random(2305)
    p = rand_poly(Q, rng, 3, max_len=5, max_terms=8)
    mats = [rand_matrix(Q, 5, rng) for _ in range(3)]
    direct = evaluate(p, mats)

    def no_matmul(self, other):
        raise AssertionError("matrix product on the structured route")

    monkeypatch.setattr(UTMatrix, "__matmul__", no_matmul)
    assert evaluate_structured(p, mats).eq(direct)


@pytest.mark.parametrize("field", ["Q", "Fp:3", "C"])
def test_structured_route_runs_no_product_kernel(field, monkeypatch):
    """The direct route's product kernel and Q's integer factors stay off
    the structured route, so the two routes remain independent."""
    desc = FieldDescriptor.parse(field)
    rng = random.Random(field)
    p = shared_poly(desc, rng, 3)
    mats = [rand_matrix(desc, 4, rng) for _ in range(3)]
    direct = evaluate(p, mats)
    monkeypatch.setattr(utpoly.triangular, "_product", _forbidden)
    monkeypatch.setattr(utpoly.triangular, "_integer_entries", _forbidden)
    assert evaluate_structured(p, mats).eq(direct)


def test_evaluate_checks_inputs():
    p = NcPolynomial.parse("x1*x2", Q)
    a = mat(2, {(1, 2): 1})
    with pytest.raises(ArityMismatch):
        evaluate(p, [a])
    # both routes take matrices over p's field only
    for route in (evaluate, evaluate_structured):
        with pytest.raises(FieldMismatch, match="matrices must be over Q, not Fp:7"):
            route(p, [a, UTMatrix(F7, 2, {(1, 2): F7.from_int(1)})])
    with pytest.raises(SizeMismatch):
        evaluate(p, [a, mat(3, {(1, 2): 1})])
    # a polynomial in no variables has no terms: its generic evaluation
    # is the empty entry map, with no generic matrix to check against
    assert generic_evaluate(NcPolynomial.parse("0", Q), 2) == {}


@pytest.mark.parametrize("route", [evaluate, evaluate_structured])
def test_a_tuple_past_the_entry_bound_is_refused_first(route, monkeypatch):
    """A tuple of m matrices of size n holds m * n(n+1)/2 entries: at the
    bound both routes evaluate, past it they raise ResourceLimit after
    the arity, size and field checks and before any product, diagonal or
    path is read."""
    bound = utpoly.triangular._MAX_TUPLE_ENTRIES
    x1 = NcPolynomial.parse("x1", Q)
    at = max(n for n in range(1, 200) if n * (n + 1) // 2 <= bound)
    assert route(x1, [mat(at, {(1, at): 3})]).eq(mat(at, {(1, at): 3}))
    for name in ("_product", "structured_entry"):
        monkeypatch.setattr(utpoly.triangular, name, _forbidden)
    monkeypatch.setattr(UTMatrix, "entry", _forbidden)
    with pytest.raises(ResourceLimit, match=f"a tuple of m = 1 matrices at n = {at + 1} "
                                            f"holds {(at + 1) * (at + 2) // 2} entries, "
                                            f"past the limit of {bound}"):
        route(x1, [mat(at + 1, {})])
    huge = [mat(10 ** 9, {(1, 2): 1}), mat(10 ** 9, {(2, 3): 1})]
    with pytest.raises(ResourceLimit, match="at n = 1000000000 holds"):
        route(NcPolynomial.parse("x1*x2 - x2*x1", Q), huge)
    # the cheaper checks still come first
    with pytest.raises(ArityMismatch):
        route(NcPolynomial.parse("x1*x2", Q), huge[:1])
    with pytest.raises(SizeMismatch):
        route(NcPolynomial.parse("x1*x2", Q), [huge[0], mat(2, {})])
    with pytest.raises(FieldMismatch):
        route(x1, [UTMatrix(F7, 10 ** 9, {})])


def test_the_tracer_reads_a_field_kind_off_the_class():
    """bench/tracer.py:95 names triangular.evaluate's per-layer metrics
    triangular.evaluate.field.* by mats[0].ring.kind.  No other test
    traces evaluate, so this pins the one attribute it reads."""
    assert UTMatrix.ring.kind == "field"
    assert mat(2, {(1, 2): 1}).ring.kind == "field"


def test_generic_matrix_shape():
    g = generic_matrix(Q, 3, 1)
    # every upper-triangular cell holds its own variable
    assert sorted(g) == [(j, k) for j in range(1, 4) for k in range(j, 4)]
    for v in g.values():
        assert not v.is_zero()
        assert [sum(e for _, e in mono) for mono in v.terms] == [1]
    assert parts(g[1, 2]) != parts(g[1, 3])


def test_generic_evaluate_specializes_to_concrete():
    """Substituting a concrete tuple into the generic evaluation must match
    direct evaluation of that tuple (the generic matrix is a universal one)."""
    from utpoly.cpoly import diag_var, entry_var
    rng = random.Random(22)
    p = rand_poly(Q, rng, 2)
    n = 3
    g = generic_evaluate(p, n)
    mats = [rand_matrix(Q, n, rng) for _ in range(2)]
    assignment = {}
    for i, a in enumerate(mats, start=1):
        for j in range(1, n + 1):
            assignment[diag_var(j, i)] = a.entry(j, j)
            for k in range(j + 1, n + 1):
                assignment[entry_var(j, k, i)] = a.entry(j, k)
    direct = evaluate(p, mats)
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            got = g[j, k].eval_full(assignment) if (j, k) in g else Q.zero()
            assert got == direct.entry(j, k), (j, k)


def test_generic_evaluate_monomial_budget(monkeypatch):
    p = NcPolynomial.parse("x1*x2*x1*x2*x1", Q)
    generic_evaluate(p, 4)  # within the default budget
    monkeypatch.setattr(utpoly.triangular, "_MONOMIAL_BUDGET", 5)
    with pytest.raises(ResourceLimit, match="grew past 5 monomials"):
        generic_evaluate(p, 4)


def test_generic_tuple_arity():
    mats = generic_tuple(Q, 3, 2)
    assert len(mats) == 2 and all(len(a) == 6 for a in mats)


def shared_poly(desc, rng, m, max_len=5, max_terms=6):
    """A random p whose words share prefixes with earlier words, repeat
    letters, and cancel in pairs: c*u*a*b*v - c*u*b*a*v vanishes on the
    diagonal, as in a commutator."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        prefix = rng.choice(list(terms)) if terms and rng.random() < 0.6 else ()
        prefix = prefix[:rng.randint(0, len(prefix))]
        tail = rng.randint(1, max(1, max_len - len(prefix)))
        word = prefix + tuple(rng.randint(1, m) for _ in range(tail))
        c = desc.sample(rng, 9)
        terms[word] = terms.get(word, desc.zero()) + c
        if len(word) >= 2 and rng.random() < 0.5:
            a = rng.randrange(len(word) - 1)
            swapped = word[:a] + (word[a + 1], word[a]) + word[a + 2:]
            terms[swapped] = terms.get(swapped, desc.zero()) - c
    return NcPolynomial(desc, m, terms)


FOLD_FIELDS = ["Q", "Fp:2", "Fp:3", "Fp:101", "C"]


@pytest.mark.parametrize("field", FOLD_FIELDS)
def test_generic_fold_matches_the_matrix_fold(field):
    """generic_evaluate folds each word as coefficient-one monomials.  It
    must give the reference's entries with their term order (C's
    summation order downstream) and float bits."""
    desc = FieldDescriptor.parse(field)
    rng = random.Random(field)
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(1, 6)
        p = shared_poly(desc, rng, m)
        reference = bits(evaluate_words(p, generic_tuple(desc, n, m), n))
        assert bits(generic_evaluate(p, n)) == reference, (p.terms, n)


@pytest.mark.parametrize("field", FOLD_FIELDS)
def test_generic_fold_budget_matches_the_matrix_fold(field, monkeypatch):
    """ResourceLimit fires under exactly the budgets the reference's
    products outgrow: one below the largest product, not at it."""
    desc = FieldDescriptor.parse(field)
    rng = random.Random(field)
    checked = 0
    for _ in range(12):
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        p = shared_poly(desc, rng, m)
        largest = 0
        for word in p.terms:
            for d in range(2, len(word) + 1):
                prod = word_product(desc, n, generic_tuple(desc, n, m), word[:d])
                largest = max(largest, sum(len(v.terms) for v in prod.values()))
        if not largest:
            continue
        checked += 1
        reference = bits(evaluate_words(p, generic_tuple(desc, n, m), n))
        for budget, want in ((largest - 1, f"symbolic matrix grew past {largest - 1} "
                                           f"monomials"),
                             (largest, reference)):
            monkeypatch.setattr(utpoly.triangular, "_MONOMIAL_BUDGET", budget)
            try:
                got = bits(generic_evaluate(p, n))
            except ResourceLimit as exc:
                got = str(exc)
            assert got == want, (p.terms, n, budget)
    assert checked >= 6


def test_generic_fold_over_q_sums_integers():
    """Over Q the generic fold sums coefficients scaled by the lcm of
    their denominators and divides once per term; with denominators up to
    10^6 and cancelling words it must still give the matrix fold's
    entries, term order included."""
    rng = random.Random(1000003)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        p = shared_poly(Q, rng, m)
        scale = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        terms = {w: c * scale if rng.random() < 0.5 else
                 Fraction(rng.randint(-10 ** 6, 10 ** 6) or 1, rng.randint(1, 10 ** 6))
                 for w, c in p.terms.items()}
        p = NcPolynomial(Q, m, terms)
        reference = bits(evaluate_words(p, generic_tuple(Q, n, m), n))
        assert bits(generic_evaluate(p, n)) == reference, (p.terms, n)


@pytest.mark.parametrize("field", FOLD_FIELDS)
def test_generic_fold_at_the_packing_boundaries(field):
    """generic_evaluate packs a monomial's exponents into one int, with a
    field per variable of the letters p holds: per row l an index field
    naming its one x[l, k, i] among (n - l) * u, u the number of letters,
    and per z[l, i] the bit length of the most times a word holds letter
    i.  At index fields whose top value is 2^b - 1 and 2^b, at z
    exponents of 2^w - 1 and 2^(w - 1), for letters of different widths
    and letters p skips, at n = 1 (no x field), for the zero polynomial
    and with six letters it must give the matrix fold's entries, term
    order included; a field one bit short carries into the next key and
    fails here."""
    desc = FieldDescriptor.parse(field)
    c = desc.parse_literal("0.3" if desc.kind == "complex" else "3/7")
    cases = [(NcPolynomial.parse(text, desc), n) for text, n in [
        ("x1^7", 3), ("x1^8", 3), ("x1^15", 2), ("x1^15*x2", 2), ("x1^16*x2", 2),
        ("x2*x1^16", 3), ("x1^3*x2^4 + 2*x2^4*x1^3 - x1^2*x2^5", 3), ("x1^7 - x1^3*x2*x1^3", 1),
        ("x1*x2^4", 1), ("x1^3", 8), ("x1^3", 9), ("x1*x2*x3 - x3*x1", 6),
        ("x2*x1^2 + x1*x2", 5), ("x5*x2^3 - x2*x5", 4), ("x4^3*x2 + x2^2", 5)]]
    rng = random.Random(field)
    cases += [(shared_poly(desc, rng, 6, max_len=6), n) for n in (1, 2, 5, 7, 8)]
    for p, n in cases:
        reference = bits(evaluate_words(p, generic_tuple(desc, n, p.nvars), n))
        assert bits(generic_evaluate(p, n)) == reference, (p.terms, n)


@pytest.mark.parametrize("field", ["Q", "Fp:3", "C"])
def test_shared_prefixes_give_the_word_by_word_fold(field):
    desc = FieldDescriptor.parse(field)
    rng = random.Random(field)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        p = shared_poly(desc, rng, m)
        mats = [rand_matrix(desc, n, rng) for _ in range(m)]
        assert bits(evaluate(p, mats).entries) == bits(evaluate_words(p, entry_maps(mats), n)), \
            p.terms


def test_a_word_costs_the_letters_after_the_shared_prefix(monkeypatch):
    """x1*x2*x3 + x1*x2*x1 + x1*x3: two products for the first word, then
    one each, since the second shares x1*x2 and the third x1."""
    p = NcPolynomial.parse("x1*x2*x3 + x1*x2*x1 + x1*x3", Q)
    rng = random.Random(5)
    mats = [rand_matrix(Q, 3, rng) for _ in range(3)]
    calls = []
    product = utpoly.triangular._product

    def counted(*args):
        calls.append(1)
        return product(*args)

    monkeypatch.setattr(utpoly.triangular, "_product", counted)
    evaluate(p, mats)
    assert len(calls) == 4


def q_matrix(rng, n, kind):
    """A Q matrix of one of the kinds the integer factors must handle."""
    if kind == "zero":
        return UTMatrix(Q, n, {})
    height = {"int": 9, "small": 9, "huge": 10 ** 12}[kind]
    entries = {}
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            if rng.random() < 0.25:
                continue
            num = rng.randint(-height, height)
            entries[(j, k)] = Fraction(num) if kind == "int" else \
                Fraction(num, rng.randint(1, height))
    return UTMatrix(Q, n, entries)


def test_q_evaluate_matches_the_word_by_word_fold():
    """Over Q evaluate multiplies integer entry maps over one denominator
    per factor; its result must be that of the Fraction fold bit for bit,
    for cancelling coefficients, zero matrices, integer entries and
    denominators up to 10^12."""
    rng = random.Random(1012)
    kinds = ["zero", "int", "small", "huge"]
    for trial in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        p = shared_poly(Q, rng, m)
        if trial % 3 == 0:
            p = NcPolynomial(Q, m, {w: Fraction(rng.randint(-10 ** 12, 10 ** 12) or 1,
                                                rng.randint(1, 10 ** 12))
                                    for w in p.terms})
        mats = [q_matrix(rng, n, rng.choice(kinds)) for _ in range(m)]
        got = evaluate(p, mats)
        assert bits(got.entries) == bits(evaluate_words(p, entry_maps(mats), n)), (p.terms, n)
        assert all(type(v) is Fraction for v in got.entries.values())


@pytest.mark.parametrize("field", ["Q", "Fp:3", "C"])
def test_matmul_is_the_product_kernel(field):
    """a @ b is the kernel's entry map, and both are the reference's, term
    order and float bits included; over Q the kernel on the integer
    factors, divided by the product of their denominators, gives the same
    entries in the same order."""
    rng = random.Random(field)
    for _ in range(30):
        n = rng.randint(1, 5)
        desc = FieldDescriptor.parse(field)
        if field == "Q":
            a, b = q_matrix(rng, n, "huge"), q_matrix(rng, n, "small")
        else:
            a, b = (rand_matrix(desc, n, rng) for _ in range(2))
        want = bits(matmul_reference(desc, n, a.entries, b.entries))
        assert bits((a @ b).entries) == want
        kernel = utpoly.triangular._product(a.entries, b.entries, n, desc)
        assert bits(UTMatrix(desc, n, kernel).entries) == want
        if field == "Q":
            (ia, da), (ib, db) = (utpoly.triangular._integer_entries(x.entries)
                                  for x in (a, b))
            ints = utpoly.triangular._product(ia, ib, n, desc)
            assert all(type(v) is int for v in ints.values())
            scaled = {pos: Fraction(v, da * db) for pos, v in ints.items()}
            assert bits(UTMatrix(desc, n, scaled).entries) == want


def test_q_evaluate_applies_each_coefficient_once_per_entry(monkeypatch, fractions_made):
    """Over Q no Fraction is multiplied or added: every term and sum runs
    on integers over one denominator, and one Fraction is built per entry
    of the result."""
    rng = random.Random(7)
    n, m = 5, 3
    p = rand_poly(Q, rng, m, max_len=5, max_terms=12)
    mats = [rand_matrix(Q, n, rng, height=10 ** 6) for _ in range(m)]
    want = bits(evaluate_words(p, entry_maps(mats), n))
    calls = []
    for name in ("__mul__", "__add__"):
        op = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda a, b, op=op: calls.append(1) or op(a, b))
    before = len(fractions_made)
    got = evaluate(p, mats)
    made = len(fractions_made) - before
    monkeypatch.undo()
    assert bits(got.entries) == want
    assert calls == []
    assert 0 < made == len(got.entries)


def test_q_evaluate_sums_mixed_denominators_exactly():
    """The integer sums over one running denominator give the Fraction
    fold's entries in its order: an entry whose sum cancels leaves and
    re-enters at the end, and the denominators of coefficients and
    entries mix."""
    diag = UTMatrix(Q, 3, {(1, 1): Fraction(2, 3), (2, 2): Fraction(-5, 7),
                               (3, 3): Fraction(1, 11)})
    strict = UTMatrix(Q, 3, {(1, 2): Fraction(1, 4), (2, 3): Fraction(3, 8),
                                 (1, 3): Fraction(-7, 6)})
    double = UTMatrix(Q, 3, {pos: 2 * v for pos, v in strict.entries.items()})
    # x2 and x3 cancel everywhere, then x1 and x1*x2 give every entry
    p = NcPolynomial(Q, 3, {(2,): Fraction(1, 3), (3,): Fraction(-1, 6),
                            (1,): Fraction(2, 5), (1, 2): Fraction(5, 9)})
    got = evaluate(p, [diag, strict, double])
    assert bits(got.entries) == bits(evaluate_words(p, entry_maps([diag, strict, double]), 3))
    assert list(got.entries) == [(1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3)]
    rng = random.Random(1000033)
    for _ in range(40):
        m, n = rng.randint(2, 3), rng.randint(1, 5)
        scale = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        terms = {w: c * scale if rng.random() < 0.5 else
                 Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, rng.randint(1, 10 ** 6))))
                 for w, c in shared_poly(Q, rng, m).terms.items()}
        terms[(m,)] = terms[(1,)] = terms.get((1,), scale)    # they cancel: x_m = -x_1
        p = NcPolynomial(Q, m, terms)
        mats = [rand_matrix(Q, n, rng, height=rng.choice((1, 9, 10 ** 6)))
                for _ in range(m - 1)]
        mats.append(UTMatrix(Q, n, {pos: -v for pos, v in mats[0].entries.items()}))
        assert bits(evaluate(p, mats).entries) == bits(evaluate_words(p, entry_maps(mats), n)), \
            p.terms


def _forbidden(*args, **kwargs):
    raise AssertionError("forbidden call")


def test_generic_evaluate_multiplies_no_polynomials(monkeypatch):
    p = NcPolynomial.parse("(x1*x2-x2*x1)*(x3*x1-x1*x3)*x2 + 2*x1*x2*x2", Q)
    reference = bits(evaluate_words(p, generic_tuple(Q, 4, 3), 4))
    monkeypatch.setattr(CPolynomial, "__mul__", _forbidden)
    monkeypatch.setattr(UTMatrix, "__matmul__", _forbidden)
    assert bits(generic_evaluate(p, 4)) == reference


def test_matrices_built_from_entries_skip_the_position_check(monkeypatch):
    """Products and both routes build their matrices from in-range
    positions, so the public constructor, with its position check, is
    not called."""
    rng = random.Random(9)
    a, b = (rand_matrix(F7, 4, rng) for _ in range(2))
    p = NcPolynomial.parse("x1*x2 - 3*x2*x1*x2", F7)

    def results():
        return [a @ b, evaluate(p, [a, b]), evaluate_structured(p, [a, b])]

    expected = [x.entries for x in results()]
    monkeypatch.setattr(UTMatrix, "__init__", _forbidden)
    assert [x.entries for x in results()] == expected


@pytest.mark.parametrize("field", ["Q", "Fp:3", "C"])
def test_matrix_eq(field, monkeypatch):
    """Over Q and F_p the entry maps decide, with no per-entry zero
    filter once the matrices are built; over C values within eps are
    equal."""
    desc = FieldDescriptor.parse(field)

    def m(entries):
        return UTMatrix(desc, 2, entries)

    different = [(m({(1, 2): 1}), m({(1, 2): 2})),
                 (m({(1, 2): 1}), m({(2, 2): 1})),
                 (m({(1, 1): 1}), m({}))]
    if field == "C":
        same = [(m({(1, 2): 1 + 0j}), m({(1, 2): 1 + 1e-12j})),
                (m({(1, 1): 1e-12}), m({}))]
        # two overflowed entries never compare equal, as inf - inf is NaN
        inf = complex(float("inf"), 0)
        different.append((m({(1, 2): inf}), m({(1, 2): inf})))
    else:
        # one value in two forms: an unreduced F_3 int, a Q Fraction
        alt = 4 if field == "Fp:3" else Fraction(1)
        same = [(m({(1, 2): alt, (2, 2): 2}), m({(2, 2): 2, (1, 2): 1})),
                (m({(1, 1): 3 if field == "Fp:3" else 0}), m({}))]
        # a frozen descriptor takes no attribute: its class's filter goes
        monkeypatch.setattr(FieldDescriptor, "nonzero", _forbidden)
    for a, b in same:
        assert a.eq(b) and b.eq(a)
    for a, b in different:
        assert not a.eq(b) and not b.eq(a)


def _canonical(desc, v):
    return type(v) is int and 0 <= v < desc.p


@pytest.mark.parametrize("field", ["Fp:2", "Fp:3", "Fp:101"])
def test_prime_field_values_are_reduced_at_rest(field):
    """An F_p value at rest is an int in [0, p): in the results of both
    evaluation routes, the generic evaluation, the live-slot index,
    eval_full and eval_scalar, and solve_target's witnesses.  Only
    running sums inside one loop may leave that range."""
    desc = FieldDescriptor.parse(field)
    rng = random.Random(field)
    solved = 0
    for trial in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        p = rand_poly(desc, rng, m)
        # coefficients p - 1 and 1 make every sum and product leave [0, p)
        p = plus(p, NcPolynomial(desc, m, {(rng.randint(1, m),): desc.from_int(-1)}))
        if p.is_zero():
            continue
        mats = [rand_matrix(desc, n, rng) for _ in range(m)]
        values = []
        for out in (evaluate(p, mats), evaluate_structured(p, mats)):
            values += out.entries.values()
        values.append(p.eval_scalar(tuple(desc.sample(rng) for _ in range(m))))
        for q in generic_evaluate(p, min(n, 3)).values():
            values += q.terms.values()
        for k in range(1, 3):
            for slots, terms in live_slots(p, k).items():
                values += [c for c, _ in terms]
                q = coeff_poly(p, slots)
                point = {v: desc.sample(rng) for v in q.variables()}
                values.append(q.eval_full(point))
        assert all(_canonical(desc, v) for v in values), (p.terms, values)
        r = exact_order(p)
        if r >= n:
            continue
        target = UTMatrix(desc, n, {(s, t): desc.sample(rng)
                                    for s in range(1, n + 1)
                                    for t in range(s + r, n + 1)})
        try:
            res = solve_target(p, n, target, SolveOptions(seed=trial))
        except UtpolyError:
            continue      # tiny fields may miss: only results are checked
        solved += 1
        for a in [*res.matrices, res.achieved]:
            assert all(_canonical(desc, v) for v in a.entries.values())
        assert res.achieved.entries == target.entries
    assert solved >= 5


def test_live_slots_bounds_the_letters_it_visits(monkeypatch):
    """live_slots(p, k) visits C(|w|, k) placements of each word w, |w|
    letters each; past _MAX_SLOT_VISITS it raises ResourceLimit, naming
    the count and the bound, before it enumerates a placement."""
    p = NcPolynomial.parse("x1^5 + 2*x1*x2", Q)
    visits = 10 * 5 + 1 * 2      # C(5, 2) * 5 + C(2, 2) * 2
    monkeypatch.setattr(utpoly.triangular, "_MAX_SLOT_VISITS", visits)
    assert live_slots(p, 2)
    q = NcPolynomial.parse("x1^5 + 2*x1*x2", Q)
    monkeypatch.setattr(utpoly.triangular, "_MAX_SLOT_VISITS", visits - 1)
    monkeypatch.setattr(utpoly.triangular, "combinations", _forbidden)
    with pytest.raises(ResourceLimit) as info:
        live_slots(q, 2)
    assert str(info.value) == (f"the live-slot index at k = 2 would visit {visits} "
                               f"letters of placements, past the limit of {visits - 1}")
    assert q.index == {}
    # a warm index is read, not counted again
    assert live_slots(p, 2)


def test_live_slots_past_the_degree_enumerates_nothing(monkeypatch):
    """No word of p has k > deg p letters to place: the index entry is
    empty, stored for structured_entry's next read, and no placement is
    enumerated (combinations would first allocate k indices)."""
    p = NcPolynomial.parse("x1*x2 - x2*x1 + x1^3", Q)
    monkeypatch.setattr(utpoly.triangular, "combinations", _forbidden)
    for k in (4, 10 ** 12, 10 ** 20):
        assert live_slots(p, k) == {} and p.index[k] == {}
    assert list(p.index) == [4, 10 ** 12, 10 ** 20]


# -- the structured path walk --------------------------------------------------


def structured_entry_reference(p, s, t, diags, arc, fresh=None):
    """Reference for structured_entry: the same terms in the same order,
    each polynomial bound to its rows through row_values and evaluated by
    eval_full, each term's arcs read through arc, and both sums built
    term by term in the field's arithmetic (Fraction sums over Q)."""
    desc = p.field
    one = desc.one()
    fresh_arc, star = (fresh[1:3], fresh[3]) if fresh else (None, None)
    fresh_sum = total = desc.zero()
    for k in range(1, t - s + 1):
        tuples = {slots: coeff_poly(p, slots) for slots in live_slots(p, k)}
        for interior in combinations(range(s + 1, t), k - 1):
            path = (s,) + interior + (t,)
            arcs = tuple(zip(path, path[1:]))
            at = arcs.index(fresh_arc) if fresh_arc in arcs else -1
            assign = None
            for slots, q in tuples.items():
                hit = at >= 0 and slots[at] == star
                arc_val = one
                for a, i in zip(arcs, slots):
                    if hit and a == fresh_arc:
                        continue
                    v = arc(a, i)
                    if v is None:
                        break
                    arc_val = arc_val * v
                else:
                    if assign is None:
                        assign = row_values(diags, path)
                    term = q.eval_full(assign) * arc_val
                    if hit:
                        fresh_sum = fresh_sum + term
                    else:
                        total = total + term
    return desc.canonical(fresh_sum), desc.canonical(total)


def walk_cases(desc, rng, count):
    """(p, diags, values, entries) for structured_entry, n <= 7: p repeats
    letters (exponents of 2 and more) and cancels in pairs; over Q its
    coefficients and the values have denominators up to 10^12; some rows
    of diagonal values repeat, so a commutator's polynomial cancels at
    them; values holds arc variables, half the time with a random quarter
    of them missing; entries lists (s, t, fresh): fresh None, on a random
    arc of the entry, and where the sweep places it for the order of p."""
    height = 10 ** 12
    made = 0
    while made < count:
        m, n = rng.randint(1, 3), rng.randint(2, 7)
        p = shared_poly(desc, rng, m, max_len=rng.randint(2, 6))
        if desc.kind == "rational":
            scale = Fraction(rng.randint(1, height), rng.randint(1, height))
            p = NcPolynomial(desc, m, {w: c * scale for w, c in p.terms.items()})
        if p.is_zero():
            continue
        made += 1
        diags = []
        for _ in range(n):
            if diags and rng.random() < 0.3:
                diags.append(diags[-1])
            else:
                diags.append(tuple(desc.sample(rng, height) for _ in range(m)))
        drop = 0.25 if rng.random() < 0.5 else 0.0
        values = {entry_var(j, k, i): desc.sample(rng, height)
                  for j in range(1, n + 1) for k in range(j + 1, n + 1)
                  for i in range(1, m + 1) if rng.random() >= drop}
        entries = []
        for s in range(1, n + 1):
            for t in range(s + 1, n + 1):
                j, k = sorted(rng.sample(range(s, t + 1), 2))
                entries += [(s, t, None),
                            (s, t, entry_var(j, k, rng.randint(1, m)))]
        r = exact_order(p)
        if r == 0:
            entries += [(s, t, entry_var(s, t, rng.randint(1, m)))
                        for s in range(1, n + 1) for t in range(s + 1, n + 1)]
        elif r < n:
            entries += build_sweep_plan_rn(r, n, rng.choice(leading_tuples(p, r)))
        yield p, diags, values, entries


def arc_reader(values, calls):
    def arc(pos, i):
        calls.append((pos, i))
        return values.get(("x", *pos, i))
    return arc


WALK_FIELDS = ["Q", "Fp:2", "Fp:3", "Fp:101", "C"]


@pytest.mark.parametrize("field", WALK_FIELDS)
def test_structured_entry_matches_the_reference_walk(field):
    """structured_entry returns the reference's two sums exactly: the same
    Fractions over Q, the same residues over F_p, the same float bits over
    C (compared by repr)."""
    desc = FieldDescriptor.parse(field)
    rng = random.Random(f"walk {field}")
    for p, diags, values, entries in walk_cases(desc, rng, 12):
        for s, t, fresh in entries:
            want = structured_entry_reference(p, s, t, diags,
                                              arc_reader(values, []), fresh)
            got = structured_entry(p, s, t, diags, arc_reader(values, []), fresh)
            assert repr(got) == repr(want), (p.terms, s, t, fresh)


@pytest.fixture
def fractions_made(monkeypatch):
    """A list that gets an item per Fraction built while the test runs."""
    made = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    if hasattr(Fraction, "_from_coprime_ints"):    # Python 3.12 and later
        coprime = Fraction._from_coprime_ints

        def counted_coprime(cls, *args):
            made.append(args)
            return coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(counted_coprime))
    return made


@pytest.mark.parametrize("field", WALK_FIELDS)
def test_structured_entry_reads_each_arc_once(field, fractions_made):
    """arc is called at most once per (arc, letter) of an entry, on the
    pairs the reference reads, in the order the reference first reads
    them; over Q a call builds at most two Fractions, its two sums."""
    desc = FieldDescriptor.parse(field)
    rng = random.Random(f"reads {field}")
    cases = list(walk_cases(desc, rng, 8))
    for p, diags, values, entries in cases:
        for s, t, fresh in entries:
            want, got = [], []
            structured_entry_reference(p, s, t, diags, arc_reader(values, want), fresh)
            before = len(fractions_made)
            structured_entry(p, s, t, diags, arc_reader(values, got), fresh)
            assert got == list(dict.fromkeys(want)), (p.terms, s, t, fresh)
            if field == "Q":
                assert len(fractions_made) - before <= 2
    if field == "Q":
        assert len(fractions_made) > 2 * sum(len(e) for *_, e in cases)
