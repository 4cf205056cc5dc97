"""Witness construction: given p of order r and a target matrix in the
band the image lives in, build concrete matrices u_1..u_m with p(u) equal
to the target (exact fields) or within the field's eps (C:<tol>).

solve_target is the entry point for every order, and one sweep driver
serves them all.  An attempt fixes the diagonals, then visits target
entries band by band and solves each through one designated fresh
variable: with the diagonals fixed and every other strictly-upper
variable of the entry given a random value, the entry polynomial is
affine in the fresh variable with a generically nonzero slope.  The
orders differ only in how diagonals and fresh variables are chosen.  For
r >= 1 the diagonals make a leading coefficient polynomial nonvanishing
on every row set an entry's slope reads (find_diagonals), entry
(s, r+s+t') is solved through position (r+s-1, r+s+t') (see
build_sweep_plan_rn), and every non-fresh variable is sampled before the
first entry.  For r = 0 each diagonal solves a univariate restriction of
p for the target's diagonal entry, and entry (s, t) is solved through
slot i* of position (s, t), whose other slots are sampled just before
it.  Either way an attempt assigns each variable once, into a plain
dict, and no earlier entry reads an entry's fresh variable, so a solved
entry stays solved.

The order comes from the live-slot index, searched only below n
(analysis.exact_order(p, n)): the image of p on size n is fixed by the
order when it is below n and is zero otherwise, so no entry point takes
an order cap, and the zero target, p(0), needs no sweep at any order.
Over Q and F_p the slope and offset of entry (s, t) are the two sums of
triangular.structured_entry, the walk evaluate_structured also sums: a
path uses each arc once, so the terms that slot the fresh variable on
its arc give the slope and the others the offset, exactly.  Q and F_p
solve, hit and verify thus make no generic evaluation.  Over C the slope
and offset are read from the generic evaluation's entry map instead,
because another summation order moves the last bits of the floats and
with them the witness the sweep prints: one partial evaluation at every
other variable leaves c1*fresh + c0, c1 is the slope, and the offset
c0 is that polynomial at fresh = 0; any other monomial left is an
internal inconsistency.  It runs under generic_evaluate's default
monomial guard and its bound on a packed monomial's bits: past either,
C solve and hit raise ResourceLimit.

A zero slope makes the attempt fail and the next one resample; the
guarantee behind the construction is density, not surjectivity, so a
slope that stays zero after the retry budget is reported as a failure
rather than glossed over.  Each finished witness is replayed once per
evaluation route, and that replay is the report it carries.  Over C a
witness whose routes disagree beyond eps fails its attempt like a
missed target; over exact fields it is an internal error.  The target
residual, the open-set test and root acceptance all read that one eps.
"""

from __future__ import annotations

import math
import random
from functools import partial

from .analysis import coeff_poly, exact_order, leading_tuples
from .cpoly import CPolynomial, diag_var, entry_var, out_var, render_var
from .errors import (BandViolation, BudgetExhausted, DegenerateCoefficient,
                     FieldMismatch, InternalInconsistency, NoRootInField,
                     OrderMismatch, VariableOutOfRange, ZeroInput)
from .fields import solve_univariate
from .freealg import NcPolynomial
from .triangular import (UTMatrix, check_tuple_entries, evaluate,
                         evaluate_structured, generic_evaluate, live_slots,
                         row_values, structured_entry)


def build_sweep_plan_rn(r: int, n: int, lead: tuple) -> list[tuple]:
    """The schedule of an r >= 1 sweep: target entries (s, t) band by
    band (t' = t - r - s), each with its fresh variable, slot lead[-1]
    of position (r+s-1, t).  Entry (s, t) reads its support, the (j, k)
    with s <= j < k <= t and k - j <= t' + 1.  Three facts hold for
    every (r, n), so nothing re-checks them; tests/test_solver.py
    recomputes them from the supports for n <= 24:
      1. each fresh position is new: its jump t' + 1 clears the supports
         of lower bands, and its column t those of its band before it;
      2. for non-initial entries with r + t' >= 2, the overlap with
         earlier supports contains (s, s+1) (in entry (s, t-1)'s when
         t' >= 1, (s-1, t-1)'s when t' = 0); when r + t' = 1 the
         supports are disjoint singletons;
      3. no position is fresh twice: (s, t) -> (r+s-1, t) is injective.
    """
    if not (1 <= r < n):
        raise OrderMismatch(f"plan needs 1 <= r < n, got r={r}, n={n}")
    if len(lead) != r:
        raise OrderMismatch(f"leading tuple length {len(lead)} != r={r}")
    return [(s, r + s + band, entry_var(r + s - 1, r + s + band, lead[-1]))
            for band in range(n - r) for s in range(1, n - r - band + 1)]


class SolveOptions:
    """The knobs of one witness construction: the seed of its random
    stream, the attempts of the sweep (retries), the sampling height (Q
    draws denominators from [1, height]), the samples of each diagonal
    search (diag_budget) and hit's random tuples after its sweeps
    (nonzero_budget).  The CLI refuses a value below 1 for every knob
    but the seed."""
    __slots__ = ("seed", "retries", "height", "diag_budget", "nonzero_budget")

    def __init__(self, seed: int = 0, retries: int = 16, height: int = 256,
                 diag_budget: int = 200, nonzero_budget: int = 200):
        self.seed = seed
        self.retries = retries
        self.height = height
        self.diag_budget = diag_budget
        self.nonzero_budget = nonzero_budget


class WitnessResult:
    __slots__ = ("matrices", "achieved", "status", "residual", "diagnostics", "report")

    def __init__(self, matrices: list, achieved: UTMatrix, status: str, residual: float,
                 diagnostics: dict, report: dict):
        self.matrices = matrices
        self.achieved = achieved
        self.status = status        # "exact" | "approx"
        self.residual = residual
        self.diagnostics = diagnostics
        self.report = report

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "residual": self.residual,
            "matrices": [a.to_json() for a in self.matrices],
            "achieved": self.achieved.to_json(),
            "diagnostics": self.diagnostics,
            "verify": self.report,
        }


def find_diagonals(p: NcPolynomial, lead: tuple, n: int, rng,
                   budget: int = 200, height: int = 256) -> list[tuple]:
    """n diagonal tuples in K^m making the leading coefficient polynomial
    q_lead nonzero on every row set the sweep reads: {s, ..., r+s-1, t}
    for 1 <= s and r+s <= t <= n, (n-r)(n-r+1)/2 sets in all.

    These sets suffice.  Let r = len(lead) = ord(p) >= 1 and take the
    plan entry (s, t), whose fresh variable sits on arc (r+s-1, t) at
    slot lead[-1] (build_sweep_plan_rn).  A term of entry (s, t) holding
    it runs along a strictly increasing path through that arc, with a
    live slot tuple of the path's length k (structured_entry).  The path
    has at most r-1 arcs from s to r+s-1, so k <= r, and no tuple
    shorter than r is live, so k = r: the path is s, s+1, ..., r+s-1, t
    and its tuple tau ends in lead[-1].  The slope is therefore
    sum over such tau of q_tau(rows s, ..., r+s-1, t) times
    x[s, s+1, tau_1] ... x[r+s-2, r+s-1, tau_{r-1}], and distinct tau
    give distinct arc monomials, so the slope is a nonzero polynomial in
    the arcs once q_lead is nonzero at those rows.  At r = 1 the sets
    are all pairs of rows and at r = n-1 the one set of all rows, the
    C(n, r+1) subsets in either case.

    Random sampling suffices because the product of the row-set renamed
    copies of q_lead is a nonzero polynomial; each candidate is then
    checked on every row set."""
    q = coeff_poly(p, lead)
    if q.is_zero():
        raise ZeroInput(f"coefficient polynomial of {lead} is zero")
    r = len(lead)
    m = p.nvars
    desc = p.field
    if n < r + 1:
        raise OrderMismatch(f"need n >= r+1 = {r + 1}, got {n}")
    row_sets = [tuple(range(s, r + s)) + (t,)
                for s in range(1, n - r + 1) for t in range(r + s, n + 1)]
    worst = 0
    for _ in range(budget):
        diags = [tuple(desc.sample(rng, height) for _ in range(m))
                 for _ in range(n)]
        failures = 0
        for rows in row_sets:
            if desc.is_zero(q.eval_full(row_values(diags, rows))):
                failures += 1
        if failures == 0:
            return diags
        worst = max(worst, failures)
    raise BudgetExhausted(
        f"no diagonal choice in {budget} samples (up to {worst} failing "
        f"subsets of {len(row_sets)})")


def _matrices_from_assignment(desc, n: int, m: int, values: dict) -> list[UTMatrix]:
    out = []
    for i in range(1, m + 1):
        entries = {}
        for j in range(1, n + 1):
            entries[(j, j)] = values.get(diag_var(j, i), desc.zero())
            for k in range(j + 1, n + 1):
                entries[(j, k)] = values.get(entry_var(j, k, i), desc.zero())
        out.append(UTMatrix(desc, n, entries))
    return out


def _residual(achieved: UTMatrix, target: UTMatrix) -> float:
    diffs = [abs(achieved.entry(*pos) - target.entry(*pos))
             for pos in set(achieved.entries) | set(target.entries)]
    # max() would drop a NaN difference (inf - inf, say) and print a finite
    # residual for a missed target
    return math.nan if any(map(math.isnan, diffs)) else max(diffs, default=0.0)


def _univariate_restriction(p: NcPolynomial, slot: int, point: list):
    """Coefficients of p as a univariate polynomial in variable `slot`,
    with every other scalar variable fixed at point[i-1]."""
    desc = p.field
    coeffs = [desc.zero() for _ in range(p.degree() + 1)]
    for word, c in p.terms.items():
        prod = c
        power = 0
        for i in word:
            if i == slot:
                power += 1
            else:
                prod = prod * point[i - 1]
        coeffs[power] = coeffs[power] + prod
    return [desc.canonical(c) for c in coeffs]


def _diagonals_r0(p: NcPolynomial, n: int, target: UTMatrix, rng,
                  opt: SolveOptions) -> tuple:
    """(diagonal rows or None, whether some restriction had no root).

    For each row, fix all but one random slot at random so the
    restriction is a nonconstant univariate polynomial, and solve it for
    the target's diagonal entry; a row gets eight tries."""
    desc = p.field
    m = p.nvars
    diags = []
    missed_root = False
    for j in range(1, n + 1):
        for _ in range(8):
            slot = rng.randrange(1, m + 1)
            point = [desc.sample(rng, opt.height) for _ in range(m)]
            coeffs = _univariate_restriction(p, slot, point)
            if all(desc.is_zero(c) for c in coeffs[1:]):
                continue  # constant restriction; re-roll
            try:
                point[slot - 1] = solve_univariate(
                    desc, coeffs, target.entry(j, j), rng)
            except NoRootInField:
                missed_root = True
                continue
            diags.append(tuple(point))
            break
        else:
            return None, missed_root
    return diags, missed_root


def _entries_positive(n: int, m: int, lead: tuple, values: dict, desc,
                      rng, height: int) -> list[tuple]:
    """The plan's (s, t, fresh) entries, after sampling every non-fresh
    strictly-upper variable into values in (j, k, i) order."""
    plan = build_sweep_plan_rn(len(lead), n, lead)
    fresh_keys = {fresh for _, _, fresh in plan}
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            for i in range(1, m + 1):
                key = entry_var(j, k, i)
                if key not in fresh_keys:
                    values[key] = desc.sample(rng, height)
    return plan


def _entries_r0(n: int, diags: list, arcs: list, values: dict, desc,
                rng, height: int):
    """(s, t, fresh) band by band.  The fresh slot i* is the first in
    arcs, (slot, nonzero single-arc coefficient polynomial) pairs, whose
    polynomial is nonzero at the diagonals of rows s and t (fresh is None
    when none is); the other slots of (s, t) are sampled into values just
    before, and only then, so a failed entry ends the draws."""
    m = len(diags[0])
    for span in range(1, n):
        for s in range(1, n - span + 1):
            t = s + span
            pair = row_values(diags, (s, t))
            star = next((i for i, q in arcs
                         if not desc.is_zero(q.eval_full(pair))), None)
            if star is None:
                yield s, t, None
                return
            for i in range(1, m + 1):
                if i != star:
                    values[entry_var(s, t, i)] = desc.sample(rng, height)
            yield s, t, entry_var(s, t, star)


def _affine_parts(desc, generic: dict, s: int, t: int, values: dict,
                  fresh) -> tuple:
    """(slope, offset) of entry (s, t) of the generic evaluation's entry
    map over desc as an affine function of its fresh variable once every
    other variable takes its value: the coefficients of fresh^1 and of
    1, both zero for an entry the map lacks."""
    zero = desc.zero()
    entry = generic.get((s, t))
    if entry is None:
        return zero, zero
    cur = entry.eval_partial(values)
    linear = ((fresh, 1),)
    if any(mono not in ((), linear) for mono in cur.terms):
        raise InternalInconsistency(
            f"entry {(s, t)} is not affine in {render_var(fresh)} alone "
            f"at the assigned values")
    offset = cur.eval_partial({fresh: zero})
    return cur.terms.get(linear, zero), offset.terms.get((), zero)


def _affine_entry(p: NcPolynomial, diags: list, s: int, t: int,
                  values: dict, fresh) -> tuple:
    """(slope, offset) of entry (s, t) in its fresh variable with every
    other variable at its value, the diagonals being the attempt's rows
    of diagonal values: the two sums of structured_entry."""

    def arc(pos, i):
        v = values.get(("x", *pos, i))
        if v is None:
            raise InternalInconsistency(
                f"entry {(s, t)} still has unassigned variables")
        return v

    return structured_entry(p, s, t, diags, arc, fresh)


def _sweep(p: NcPolynomial, n: int, r: int, target: UTMatrix,
           opt: SolveOptions, f: CPolynomial | None = None) -> WitnessResult:
    """The witness driver for 0 <= r <= n-1 (validated by the caller).
    With f given, the witness report also evaluates the open-set
    condition, which the caller checks."""
    desc = p.field
    m = p.nvars
    rng = random.Random(opt.seed)
    # over C the symbolic entry keeps C's float summation order
    generic = generic_evaluate(p, n) if desc.kind == "complex" else None
    if r:
        leads = leading_tuples(p, r)
        if not leads:
            raise InternalInconsistency(
                f"no nonzero coefficient polynomial of length {r}")
    else:
        arcs = [(i, coeff_poly(p, (i,))) for (i,) in live_slots(p, 1)]
        if not arcs:
            raise InternalInconsistency(
                "no nonzero single-arc coefficient at order 0")
    missed_root = False
    last_entry = None
    for attempt in range(opt.retries):
        if r:
            lead = leads[attempt % len(leads)]
            diags = find_diagonals(p, lead, n, rng, opt.diag_budget, opt.height)
        else:
            lead = None
            diags, missed = _diagonals_r0(p, n, target, rng, opt)
            missed_root = missed_root or missed
            if diags is None:
                continue
        values = {diag_var(j, i): v for j, row in enumerate(diags, 1)
                  for i, v in enumerate(row, 1)}
        entries = (_entries_positive(n, m, lead, values, desc, rng, opt.height)
                   if r else
                   _entries_r0(n, diags, arcs, values, desc, rng, opt.height))
        affine = (partial(_affine_entry, p, diags) if generic is None
                  else partial(_affine_parts, desc, generic))
        for s, t, fresh in entries:
            if fresh is not None:
                slope, offset = affine(s, t, values, fresh)
            if fresh is None or desc.is_zero(slope):
                last_entry = (s, t)
                break
            values[fresh] = desc.div(target.entry(s, t) - offset, slope)
        else:
            diagnostics = {
                "attempts": attempt + 1,
                "leading_tuple": None if lead is None else list(lead),
                "diagonals": [[desc.render_value(v) for v in row]
                              for row in diags],
                "seed": opt.seed,
            }
            matrices = _matrices_from_assignment(desc, n, m, values)
            achieved, rep = _replay(p, matrices, r, target, f)
            if not rep["dual_evaluation_agrees"]:
                # over C an ill-conditioned witness can push the routes
                # apart by more than the absolute eps: resample it
                if desc.kind != "complex":
                    raise InternalInconsistency(
                        "evaluation routes disagree on witness")
            elif rep["target_met"]:
                return WitnessResult(matrices, achieved, _status(desc),
                                     rep["target_residual"], diagnostics, rep)
            last_entry = ("verify",)
    if missed_root and last_entry is None:
        raise NoRootInField(
            f"diagonal equation unsolvable in {desc.render()} after "
            f"{opt.retries} attempts (complex base field always has roots)")
    raise DegenerateCoefficient(
        f"no usable slope after {opt.retries} attempts"
        + (f" (last failing entry {last_entry})" if last_entry else ""),
        entry=last_entry)


def _check_field_matrices(p: NcPolynomial, matrices) -> None:
    """FieldMismatch unless every matrix is over p's field."""
    if not all(p.field.same_field(a.desc) for a in matrices):
        raise FieldMismatch(
            f"witness and target matrices must be over {p.field.render()}")


def _check_open_set(p: NcPolynomial, f: CPolynomial) -> None:
    if not f.field.same_field(p.field):
        raise FieldMismatch(f"open-set polynomial over {f.field.render()}, "
                            f"polynomial over {p.field.render()}")


def _open_set_coordinates(f: CPolynomial, n: int, r: int) -> list[tuple]:
    """The band coordinates of order r at size n, after checking that
    every variable of f is one of them (VariableOutOfRange)."""
    coords = band_coordinates(n, r)
    coord_set = set(coords)
    for key in f.variables():
        if key[0] != "y" or (key[1], key[2]) not in coord_set:
            raise VariableOutOfRange(
                f"{render_var(key)} is not a band coordinate for r={r}, n={n}")
    return coords


def _check_target(p: NcPolynomial, n: int, target: UTMatrix) -> None:
    _check_field_matrices(p, [target])
    if target.n != n:
        raise BandViolation(f"target size {target.n} != n = {n}")


def solve_target(p: NcPolynomial, n: int, target: UTMatrix,
                 options: SolveOptions | None = None) -> WitnessResult:
    """Matrices u with p(u) = target, for every order r of p.

    Raises BandViolation when the target has a nonzero entry with
    k - j <= r-1 (band n-1 when r >= n: the image is zero), and
    DegenerateCoefficient when every retry produced a zero slope;
    FieldMismatch, before any work, for a target not over p's field.
    The zero target gets the zero tuple, p(0) = 0, with no sweep.
    ResourceLimit first, before any listing, sampling or replay, for a
    witness past the tuple bound (check_tuple_entries)."""
    opt = options or SolveOptions()
    check_tuple_entries(p.nvars, n)
    _check_target(p, n, target)
    r = exact_order(p, n)
    band = n - 1 if r is None else r - 1
    if not target.in_band(band):
        raise BandViolation(
            f"target has a nonzero entry with k - j <= {band}"
            + (f" (order >= n = {n}: the image is zero)" if r is None else ""))
    if not target.entries:
        zero = _matrices_from_assignment(p.field, n, p.nvars, {})
        achieved, rep = _replay(p, zero, r, target, None)
        return WitnessResult(zero, achieved, "exact", 0.0,
                             {"attempts": 0, "leading_tuple": None,
                              "diagonals": None, "seed": opt.seed}, rep)
    return _sweep(p, n, r, target, opt)


def solve_diagonal_r0(p: NcPolynomial, n: int, target: UTMatrix,
                      options: SolveOptions | None = None) -> WitnessResult:
    """solve_target for order-0 polynomials only: OrderMismatch for any
    other order.  At order 0 some single-arc coefficient polynomial is
    nonzero (the identity relating scalar increments to single-arc
    coefficients forces one), so each entry has a usable slot."""
    _check_target(p, n, target)
    if exact_order(p, 1) is None:
        raise OrderMismatch("order is not 0")
    return solve_target(p, n, target, options)


def band_coordinates(n: int, r: int) -> list[tuple]:
    """Positions (s,t), s <= t, with t - s >= r: the coordinates of band
    r-1, the diagonal included at r = 0 (band -1 is the whole algebra)."""
    return [(s, t) for s in range(1, n + 1) for t in range(s, n + 1)
            if t - s >= r]


def hit_open_set(p: NcPolynomial, n: int, f: CPolynomial,
                 options: SolveOptions | None = None) -> WitnessResult:
    """Matrices u with f nonzero at the output coordinates of p(u).

    f is a polynomial in y[s,t] over the band coordinates.  Strategy:
    sample a coordinate point where f is nonzero, aim the sweep at it,
    and fall back to fully random tuples if the sweep degenerates (the
    composite f(p(generic)) is a nonzero polynomial, so random tuples
    also work with high probability).  FieldMismatch, before any work,
    for an f not over p's field, and ResourceLimit first for a witness
    past the tuple bound (check_tuple_entries)."""
    opt = options or SolveOptions()
    desc = p.field
    check_tuple_entries(p.nvars, n)
    _check_open_set(p, f)
    if f.is_zero():
        raise ZeroInput("open-set polynomial is zero")
    r = exact_order(p, n)
    if r is None or r < 1:
        got = f"r >= n = {n}" if r is None else f"r={r}"
        raise OrderMismatch(f"open-set witnesses need 1 <= r <= n-1, got {got}")
    coords = _open_set_coordinates(f, n, r)
    rng = random.Random(opt.seed)
    solver_failures = 0
    for _ in range(opt.retries):
        point = {out_var(s, t): desc.sample(rng, opt.height) for s, t in coords}
        if desc.is_zero(f.eval_full(point)):
            continue
        target = UTMatrix(desc, n, {(s, t): point[out_var(s, t)]
                                    for s, t in coords})
        sub = SolveOptions(seed=rng.randrange(2 ** 30), retries=4, height=opt.height,
                           diag_budget=opt.diag_budget, nonzero_budget=opt.nonzero_budget)
        try:
            result = _sweep(p, n, r, target, sub, f)
        except (DegenerateCoefficient, BudgetExhausted):
            solver_failures += 1
            continue
        if result.report["open_set_met"]:
            return result
    # fallback: pure random tuples, drawn matrix by matrix, row by row
    for _ in range(opt.nonzero_budget):
        values = {entry_var(j, k, i) if k > j else diag_var(j, i): desc.sample(rng, opt.height)
                  for i in range(1, p.nvars + 1)
                  for j in range(1, n + 1) for k in range(j, n + 1)}
        matrices = _matrices_from_assignment(desc, n, p.nvars, values)
        achieved, rep = _replay(p, matrices, r, None, f)
        if rep["open_set_met"]:
            return WitnessResult(
                matrices, achieved, _status(desc),
                0.0, {"attempts": opt.retries + solver_failures,
                      "leading_tuple": None, "diagonals": None,
                      "seed": opt.seed, "fallback": "random"},
                rep)
    raise BudgetExhausted(
        f"no open-set witness within budget ({solver_failures} solver "
        f"failures, {opt.nonzero_budget} random tuples)")


def _status(desc) -> str:
    return "approx" if desc.kind == "complex" else "exact"


def _replay(p: NcPolynomial, matrices: list, r: int | None,
            target: UTMatrix | None, f: CPolynomial | None) -> tuple:
    """(direct evaluation, report): one pass through each evaluation
    route, then the target and open-set checks on the direct result,
    within the field's eps over C.  r fixes the open-set coordinates and
    is read only when f is given."""
    desc = p.field
    direct = evaluate(p, matrices)
    structured = evaluate_structured(p, matrices)
    report = {
        "dual_evaluation_agrees": direct.eq(structured),
        "band_level": direct.band_level(),
    }
    if target is not None:
        met = direct.eq(target)
        if desc.kind == "complex":
            residual = _residual(direct, target)
            # JSON has no inf or nan: an overflowed residual reads null,
            # as a missed exact target does
            report["target_residual"] = (residual if math.isfinite(residual)
                                         else None)
        else:
            report["target_residual"] = 0.0 if met else None
        report["target_met"] = met
    if f is not None:
        value = f.eval_full({out_var(s, t): direct.entry(s, t)
                             for s, t in band_coordinates(direct.n, r)})
        report["open_set_value"] = desc.render_value(value)
        report["open_set_met"] = (abs(value) > desc.eps
                                  if desc.kind == "complex"
                                  else not desc.is_zero(value))
    return direct, report


def verify(p: NcPolynomial, matrices: list, target: UTMatrix | None = None,
           f: CPolynomial | None = None) -> dict:
    """Replay a witness through both evaluation routes and check the
    target or open-set condition.  Never raises for a failed check; the
    report carries the outcome so callers can decide.  The open-set
    coordinates are those of band r-1 at the witness size n, none when
    r >= n, so with f given a zero p raises ZeroInput.  Matrices, a
    target or an f not over p's field raise FieldMismatch, and a
    variable of f that is no open-set coordinate VariableOutOfRange,
    and a tuple past check_tuple_entries' bound ResourceLimit, before
    any evaluation."""
    _check_field_matrices(p, matrices if target is None else [*matrices, target])
    n = matrices[0].n if matrices else 0
    check_tuple_entries(len(matrices), n)
    r = None
    if f is not None:
        _check_open_set(p, f)
        r = exact_order(p, n)
        if r is None:
            r = n    # band n-1 has no coordinates, as every r >= n
        _open_set_coordinates(f, n, r)
    return _replay(p, matrices, r, target, f)[1]
