"""Witness construction: given p of order r and a target matrix in the
band the image lives in, build concrete matrices u_1..u_m with p(u) equal
to the target (exact fields) or within tolerance (complex).

One sweep driver serves every order.  An attempt fixes the diagonals,
then visits target entries band by band and solves each through one
designated fresh variable: with the diagonals fixed and every other
strictly-upper variable of the entry given a random value, the entry
polynomial is affine in the fresh variable with a generically nonzero
slope.  The orders differ only in how diagonals and fresh variables are
chosen.  For r >= 1 the diagonals make a leading coefficient polynomial
nonvanishing on every (r+1)-subset of rows, entry (s, r+s+t') is solved
through position (r+s-1, r+s+t') (see build_sweep_plan_rn), and every
non-fresh variable is sampled before the first entry.  For r = 0 each
diagonal solves a univariate restriction of p for the target's diagonal
entry, and entry (s, t) is solved through slot i* of position (s, t),
whose other slots are sampled just before it.

A zero slope makes the attempt fail and the next one resample; the
guarantee behind the construction is density, not surjectivity, so a
slope that stays zero after the retry budget is reported as a failure
rather than glossed over.  Each finished witness is replayed once per
evaluation route, and that replay is the report it carries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from itertools import combinations

from .analysis import band_sets, coeff_poly, exact_order, leading_tuples
from .cpoly import CPolynomial, diag_var, entry_var, out_var, render_var
from .errors import (BandViolation, BudgetExhausted, DegenerateCoefficient,
                     IncompatibleAssignment, InternalInconsistency,
                     NoRootInField, OrderMismatch, VariableOutOfRange,
                     ZeroInput)
from .fields import FieldDescriptor, solve_univariate
from .freealg import NcPolynomial
from .triangular import (FieldRing, UTMatrix, evaluate, evaluate_structured,
                         generic_evaluate)


class PartialAssignment:
    """Variable values accumulated across the sweep.  Setting a key twice
    with disagreeing values fails: blocks that overlap must agree on the
    overlap, which is what makes the per-entry solutions mergeable."""

    def __init__(self, desc: FieldDescriptor):
        self.desc = desc
        self.values: dict = {}

    def set(self, key, value):
        if key in self.values and not self.desc.eq(self.values[key], value):
            raise IncompatibleAssignment(
                f"{render_var(key)} set to two different values")
        self.values[key] = value


@dataclass(frozen=True)
class PlanEntry:
    s: int
    t: int
    band: int                 # t' = t - r - s
    fresh: tuple              # entry variable key at (r+s-1, t)
    chain: tuple              # ((j, k, slot), ...) arcs preceding the fresh arc
    support_new: frozenset    # positions in this entry's support, first seen here
    support_old: frozenset    # positions shared with earlier entries


@dataclass
class SweepPlan:
    r: int
    n: int
    lead: tuple
    entries: list


def build_sweep_plan_rn(r: int, n: int, lead: tuple) -> SweepPlan:
    """The combinatorial schedule for given (r, n) and leading tuple.

    Three facts are checked while building, not assumed:
      1. each fresh position is new (not in any earlier entry's support);
      2. for non-initial entries with r + t' >= 2, the overlap with earlier
         supports contains (s, s+1); when r + t' = 1 (order-1 base band)
         the blocks are singletons and the overlap is provably empty;
      3. no position is designated fresh twice.
    """
    if not (1 <= r < n):
        raise OrderMismatch(f"plan needs 1 <= r < n, got r={r}, n={n}")
    if len(lead) != r:
        raise OrderMismatch(f"leading tuple length {len(lead)} != r={r}")
    entries = []
    seen_union: set = set()
    fresh_seen: set = set()
    for band in range(0, n - r):
        for s in range(1, n - r - band + 1):
            t = r + s + band
            support = band_sets(s, t, r).arc_support
            fresh_pos = (r + s - 1, t)
            new = frozenset(support - seen_union)
            old = frozenset(support & seen_union)
            if fresh_pos not in new:
                raise InternalInconsistency(
                    f"fresh position {fresh_pos} not new at entry ({s},{t})")
            if entries:
                if r + band >= 2:
                    if (s, s + 1) not in old:
                        raise InternalInconsistency(
                            f"(s,s+1) missing from overlap at entry ({s},{t})")
                elif old:
                    raise InternalInconsistency(
                        f"unexpected overlap at order-1 base entry ({s},{t})")
            if fresh_pos in fresh_seen:
                raise InternalInconsistency(
                    f"position {fresh_pos} designated fresh twice")
            fresh_seen.add(fresh_pos)
            chain = tuple((s + j - 1, s + j, lead[j - 1]) for j in range(1, r))
            entries.append(PlanEntry(
                s, t, band, entry_var(r + s - 1, t, lead[r - 1]),
                chain, new, old))
            seen_union |= support
    return SweepPlan(r, n, lead, entries)


@dataclass
class SolveOptions:
    seed: int = 0
    retries: int = 16
    height: int = 256
    tolerance: float = 1e-9
    diag_budget: int = 200
    nonzero_budget: int = 200
    order_cap: int | None = None
    monomial_budget: int = 10 ** 6


@dataclass
class WitnessResult:
    matrices: list
    achieved: UTMatrix
    status: str               # "exact" | "approx"
    residual: float
    diagnostics: dict
    report: dict = field(default_factory=dict)

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
    nonzero on every increasing (r+1)-subset of rows.

    Random sampling suffices because the product of the subset-renamed
    copies is a nonzero polynomial; each candidate is then verified
    exhaustively over all C(n, r+1) subsets."""
    q = coeff_poly(p, lead)
    if q.is_zero():
        raise ZeroInput(f"coefficient polynomial of {lead} is zero")
    r = len(lead)
    m = p.nvars
    desc = p.field
    if n < r + 1:
        raise OrderMismatch(f"need n >= r+1 = {r + 1}, got {n}")
    worst = 0
    for _ in range(budget):
        diags = [tuple(desc.sample(rng, height) for _ in range(m))
                 for _ in range(n)]
        failures = 0
        for subset in combinations(range(n), r + 1):
            assign = {}
            for l, row in enumerate(subset, start=1):
                for i in range(1, m + 1):
                    assign[diag_var(l, i)] = diags[row][i - 1]
            if desc.is_zero(q.eval_full(assign)):
                failures += 1
        if failures == 0:
            return diags
        worst = max(worst, failures)
    raise BudgetExhausted(
        f"no diagonal choice in {budget} samples (up to {worst} failing "
        f"subsets of {math.comb(n, r + 1)})")


def _matrices_from_assignment(desc, n: int, m: int, values: dict) -> list[UTMatrix]:
    ring = FieldRing(desc)
    out = []
    for i in range(1, m + 1):
        entries = {}
        for j in range(1, n + 1):
            entries[(j, j)] = values.get(diag_var(j, i), desc.zero())
            for k in range(j + 1, n + 1):
                entries[(j, k)] = values.get(entry_var(j, k, i), desc.zero())
        out.append(UTMatrix(ring, n, entries))
    return out


def _residual(desc, achieved: UTMatrix, target: UTMatrix) -> float:
    worst = 0.0
    for pos in set(achieved.entries) | set(target.entries):
        diff = abs(achieved.entry(*pos) - target.entry(*pos))
        worst = max(worst, diff)
    return worst


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
    return coeffs


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
                    desc, coeffs, target.entry(j, j), rng,
                    root_tol=opt.tolerance)
            except NoRootInField:
                missed_root = True
                continue
            diags.append(tuple(point))
            break
        else:
            return None, missed_root
    return diags, missed_root


def _entries_positive(n: int, m: int, lead: tuple, assign: PartialAssignment,
                      rng, height: int):
    """(s, t, fresh) in plan order, after sampling every non-fresh
    strictly-upper variable in (j, k, i) order."""
    plan = build_sweep_plan_rn(len(lead), n, lead)
    fresh_keys = {e.fresh for e in plan.entries}
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            for i in range(1, m + 1):
                key = entry_var(j, k, i)
                if key not in fresh_keys:
                    assign.set(key, assign.desc.sample(rng, height))
    for e in plan.entries:
        yield e.s, e.t, e.fresh


def _entries_r0(n: int, diags: list, arc_polys: dict, live_slots: list,
                assign: PartialAssignment, rng, height: int):
    """(s, t, fresh) band by band.  The fresh slot i* is the first whose
    single-arc coefficient polynomial is nonzero at the diagonals of rows
    s and t (fresh is None when none is); the other slots of (s, t) are
    sampled just before the entry is yielded."""
    desc = assign.desc
    m = len(diags[0])
    for span in range(1, n):
        for s in range(1, n - span + 1):
            t = s + span
            pair = {}
            for i in range(1, m + 1):
                pair[diag_var(1, i)] = diags[s - 1][i - 1]
                pair[diag_var(2, i)] = diags[t - 1][i - 1]
            star = next((i for i in live_slots
                         if not desc.is_zero(arc_polys[i].eval_full(pair))),
                        None)
            if star is None:
                yield s, t, None
                return
            for i in range(1, m + 1):
                if i != star:
                    assign.set(entry_var(s, t, i), desc.sample(rng, height))
            yield s, t, entry_var(s, t, star)


def _affine_parts(entry: CPolynomial, values: dict, fresh, pos: tuple) -> tuple:
    """(slope, offset) of the entry polynomial as an affine function of
    its fresh variable once every other variable takes its value."""
    cur = entry.eval_partial(values)
    if cur.degree_in(fresh) > 1:
        raise InternalInconsistency(
            f"entry {pos} not affine in {render_var(fresh)}")
    slope = cur.coefficient_of([fresh])
    offset = cur.eval_partial({fresh: entry.field.zero()})
    if not (slope.is_constant() and offset.is_constant()):
        raise InternalInconsistency(
            f"entry {pos} still has unassigned variables")
    return slope.constant_value(), offset.constant_value()


def _sweep(p: NcPolynomial, n: int, r: int, target: UTMatrix,
           opt: SolveOptions, f: CPolynomial | None = None) -> WitnessResult:
    """The witness driver for 0 <= r <= n-1 (validated by the caller).
    With f given, the witness report also evaluates the open-set
    condition, which the caller checks."""
    desc = p.field
    m = p.nvars
    rng = random.Random(opt.seed)
    generic = generic_evaluate(p, n, opt.monomial_budget)
    if r:
        leads = leading_tuples(p, r)
    else:
        arc_polys = {i: coeff_poly(p, (i,)) for i in range(1, m + 1)}
        live_slots = [i for i in range(1, m + 1) if not arc_polys[i].is_zero()]
        if not live_slots:
            raise InternalInconsistency(
                "no nonzero single-arc coefficient at order 0")
    missed_root = False
    last_entry = None
    for attempt in range(opt.retries):
        # the entry generators draw nothing until the loop below pulls
        # their first entry, after the diagonals are in place
        assign = PartialAssignment(desc)
        if r:
            lead = leads[attempt % len(leads)]
            diags = find_diagonals(p, lead, n, rng, opt.diag_budget, opt.height)
            entries = _entries_positive(n, m, lead, assign, rng, opt.height)
        else:
            lead = None
            diags, missed = _diagonals_r0(p, n, target, rng, opt)
            missed_root = missed_root or missed
            if diags is None:
                continue
            entries = _entries_r0(n, diags, arc_polys, live_slots, assign,
                                  rng, opt.height)
        for j in range(1, n + 1):
            for i in range(1, m + 1):
                assign.set(diag_var(j, i), diags[j - 1][i - 1])
        for s, t, fresh in entries:
            if fresh is not None:
                slope, offset = _affine_parts(generic.entry(s, t),
                                              assign.values, fresh, (s, t))
            if fresh is None or desc.is_zero(slope):
                last_entry = (s, t)
                break
            assign.set(fresh, (target.entry(s, t) - offset) / slope)
        else:
            diagnostics = {
                "attempts": attempt + 1,
                "leading_tuple": None if lead is None else list(lead),
                "diagonals": [[desc.render_value(v) for v in row]
                              for row in diags],
                "seed": opt.seed,
            }
            matrices = _matrices_from_assignment(desc, n, m, assign.values)
            achieved, rep = _replay(p, matrices, r, target, f, opt.tolerance)
            if not rep["dual_evaluation_agrees"]:
                raise InternalInconsistency(
                    "evaluation routes disagree on witness")
            if rep["target_met"]:
                return WitnessResult(matrices, achieved, _status(desc),
                                     rep["target_residual"], diagnostics, rep)
            last_entry = last_entry or ("verify",)
    if missed_root and last_entry is None:
        raise NoRootInField(
            f"diagonal equation unsolvable in {desc.render()} after "
            f"{opt.retries} attempts (complex base field always has roots)")
    raise DegenerateCoefficient(
        f"no usable slope after {opt.retries} attempts"
        + (f" (last failing entry {last_entry})" if last_entry else ""),
        entry=last_entry)


def solve_target(p: NcPolynomial, n: int, target: UTMatrix,
                 options: SolveOptions | None = None) -> WitnessResult:
    """Matrices u with p(u) = target, for 1 <= ord(p) <= n-1.

    Raises BandViolation when the target has a nonzero entry with
    k - j <= r-1, OrderMismatch outside the order regime (r = 0 has its
    own route, r >= n admits only the zero target, handled here), and
    DegenerateCoefficient when every retry produced a zero slope."""
    opt = options or SolveOptions()
    if target.n != n:
        raise BandViolation(f"target size {target.n} != n = {n}")
    r = exact_order(p, opt.order_cap)
    if r == 0:
        raise OrderMismatch("order 0: use solve_diagonal_r0")
    if r >= n:
        if target.entries:
            raise BandViolation(f"order {r} >= n = {n}: image is zero only")
        zero = [UTMatrix.zeros(FieldRing(p.field), n) for _ in range(p.nvars)]
        achieved, rep = _replay(p, zero, r, target, None, opt.tolerance)
        return WitnessResult(zero, achieved, "exact", 0.0,
                             {"attempts": 0, "leading_tuple": None,
                              "diagonals": None, "seed": opt.seed}, rep)
    if not target.in_band(r - 1):
        raise BandViolation(
            f"target has a nonzero entry with k - j <= {r - 1}")
    return _sweep(p, n, r, target, opt)


def solve_diagonal_r0(p: NcPolynomial, n: int, target: UTMatrix,
                      options: SolveOptions | None = None) -> WitnessResult:
    """Witness construction for order-0 polynomials.

    Diagonals: for each row, fix all but one scalar variable at random so
    the restriction is a nonconstant univariate polynomial, and solve it
    for the target's diagonal entry.  Off-diagonal entries are then swept
    in band order; entry (s,t) is solved through x[s,t,i*] where i* is a
    slot whose single-arc coefficient polynomial is nonzero at the chosen
    diagonals (some slot works generically; the identity relating scalar
    increments to single-arc coefficients forces at least one nonzero
    single-arc coefficient polynomial when the order is 0)."""
    opt = options or SolveOptions()
    if target.n != n:
        raise BandViolation(f"target size {target.n} != n = {n}")
    r = exact_order(p, opt.order_cap)
    if r != 0:
        raise OrderMismatch(f"order is {r}, not 0")
    return _sweep(p, n, 0, target, opt)


def band_coordinates(n: int, r: int) -> list[tuple]:
    """Positions (s,t) with t - s >= r, the coordinates of band r-1."""
    return [(s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1)
            if t - s >= r]


def hit_open_set(p: NcPolynomial, n: int, f: CPolynomial,
                 options: SolveOptions | None = None) -> WitnessResult:
    """Matrices u with f nonzero at the output coordinates of p(u).

    f is a polynomial in y[s,t] over the band coordinates.  Strategy:
    sample a coordinate point where f is nonzero, aim the sweep at it,
    and fall back to fully random tuples if the sweep degenerates (the
    composite f(p(generic)) is a nonzero polynomial, so random tuples
    also work with high probability)."""
    opt = options or SolveOptions()
    desc = p.field
    if f.is_zero():
        raise ZeroInput("open-set polynomial is zero")
    r = exact_order(p, opt.order_cap)
    if not (1 <= r <= n - 1):
        raise OrderMismatch(f"open-set witnesses need 1 <= r <= n-1, got r={r}")
    coords = band_coordinates(n, r)
    coord_set = set(coords)
    for key in f.variables():
        if key[0] != "y" or (key[1], key[2]) not in coord_set:
            raise VariableOutOfRange(
                f"{render_var(key)} is not a band coordinate for r={r}, n={n}")
    rng = random.Random(opt.seed)
    ring = FieldRing(desc)
    solver_failures = 0
    for _ in range(opt.retries):
        point = {out_var(s, t): desc.sample(rng, opt.height) for s, t in coords}
        if desc.is_zero(f.eval_full(point)):
            continue
        target = UTMatrix(ring, n, {(s, t): point[out_var(s, t)]
                                    for s, t in coords})
        sub = replace(opt, seed=rng.randrange(2 ** 30), retries=4)
        try:
            result = _sweep(p, n, r, target, sub, f)
        except (DegenerateCoefficient, BudgetExhausted):
            solver_failures += 1
            continue
        if result.report["open_set_met"]:
            return result
    # fallback: pure random tuples
    for _ in range(opt.nonzero_budget):
        matrices = []
        for _ in range(p.nvars):
            entries = {}
            for j in range(1, n + 1):
                for k in range(j, n + 1):
                    entries[(j, k)] = desc.sample(rng, opt.height)
            matrices.append(UTMatrix(ring, n, entries))
        achieved, rep = _replay(p, matrices, r, None, f, opt.tolerance)
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
            target: UTMatrix | None, f: CPolynomial | None,
            tolerance: float) -> tuple:
    """(direct evaluation, report): one pass through each evaluation
    route, then the target and open-set checks on the direct result.
    r fixes the open-set coordinates and is read only when f is given."""
    desc = p.field
    direct = evaluate(p, matrices)
    structured = evaluate_structured(p, matrices)
    report = {
        "dual_evaluation_agrees": direct.eq(structured),
        "band_level": direct.band_level(),
    }
    if target is not None:
        if desc.kind == "complex":
            residual = _residual(desc, direct, target)
            report["target_residual"] = residual
            report["target_met"] = residual <= tolerance
        else:
            report["target_residual"] = 0.0 if direct.eq(target) else None
            report["target_met"] = direct.eq(target)
    if f is not None:
        value = f.eval_full({out_var(s, t): direct.entry(s, t)
                             for s, t in band_coordinates(direct.n, r)})
        report["open_set_value"] = desc.render_value(value)
        report["open_set_met"] = (abs(value) > tolerance
                                  if desc.kind == "complex"
                                  else not desc.is_zero(value))
    return direct, report


def verify(p: NcPolynomial, matrices: list, target: UTMatrix | None = None,
           f: CPolynomial | None = None, tolerance: float = 1e-9) -> dict:
    """Replay a witness through both evaluation routes and check the
    target or open-set condition.  Never raises for a failed check; the
    report carries the outcome so callers can decide.  The open-set
    coordinates come from the order of p, so with f given a zero p
    raises ZeroInput."""
    r = exact_order(p) if f is not None else None
    return _replay(p, matrices, r, target, f, tolerance)[1]
