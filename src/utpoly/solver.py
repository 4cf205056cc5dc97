"""Witness construction: given p of order r and a target matrix in the
band the image lives in, build concrete matrices u_1..u_m with p(u) equal
to the target (exact fields) or within tolerance (complex).

The sweep visits target entries band by band, (s, r+s+t') for t' = 0,1,...
and s = 1..n-r-t'.  Each entry is solved through one designated fresh
variable at position (r+s-1, r+s+t'): with diagonals fixed by a
nonvanishing choice and every other strictly-upper variable given a random
value, the entry polynomial is affine in the fresh variable with a
generically nonzero slope.  Degenerate slopes trigger a full resample;
the guarantee behind the construction is density, not surjectivity, so a
slope that stays zero after the retry budget is reported as a failure
rather than glossed over.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product

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

    def merge(self, other: "PartialAssignment"):
        for key, value in other.values.items():
            self.set(key, value)

    def __contains__(self, key):
        return key in self.values

    def get(self, key, default=None):
        return self.values.get(key, default)

    def copy(self) -> "PartialAssignment":
        out = PartialAssignment(self.desc)
        out.values = dict(self.values)
        return out


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


def build_sweep_plan(p: NcPolynomial, n: int) -> SweepPlan:
    r = exact_order(p)
    if not (1 <= r < n):
        raise OrderMismatch(f"order {r} admits no sweep at size {n}")
    lead = leading_tuples(p, r)[0]
    return build_sweep_plan_rn(r, n, lead)


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
        f"subsets of {len(list(combinations(range(n), r + 1)))})")


def simultaneous_nonvanishing(polys: list[CPolynomial], rng,
                              budget: int = 200, height: int = 256) -> dict:
    """One assignment making every listed polynomial nonzero."""
    if not polys:
        return {}
    desc = polys[0].field
    for q in polys:
        if q.is_zero():
            raise ZeroInput("simultaneous nonvanishing of a zero polynomial")
    keys = sorted(set().union(*(q.variables() for q in polys)))
    for _ in range(budget):
        assign = {k: desc.sample(rng, height) for k in keys}
        if all(not desc.is_zero(q.eval_full(assign)) for q in polys):
            return assign
    raise BudgetExhausted(f"no common nonvanishing point in {budget} samples")


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


def _finish(p, desc, values, n, target, diagnostics, tolerance):
    matrices = _matrices_from_assignment(desc, n, p.nvars, values)
    achieved = evaluate(p, matrices)
    rep = verify(p, matrices, target=target, tolerance=tolerance)
    if not rep["dual_evaluation_agrees"]:
        raise InternalInconsistency("evaluation routes disagree on witness")
    if desc.kind == "complex":
        residual = _residual(desc, achieved, target)
        if residual > tolerance:
            return None
        return WitnessResult(matrices, achieved, "approx", residual,
                             diagnostics, rep)
    if not achieved.eq(target):
        return None
    return WitnessResult(matrices, achieved, "exact", 0.0, diagnostics, rep)


def solve_target(p: NcPolynomial, n: int, target: UTMatrix,
                 options: SolveOptions | None = None) -> WitnessResult:
    """Matrices u with p(u) = target, for 1 <= ord(p) <= n-1.

    Raises BandViolation when the target has a nonzero entry with
    k - j <= r-1, OrderMismatch outside the order regime (r = 0 has its
    own route, r >= n admits only the zero target, handled here), and
    DegenerateCoefficient when every retry produced a zero slope."""
    opt = options or SolveOptions()
    desc = p.field
    if target.n != n:
        raise BandViolation(f"target size {target.n} != n = {n}")
    r = exact_order(p, opt.order_cap)
    if r == 0:
        raise OrderMismatch("order 0: use solve_diagonal_r0")
    if r >= n:
        if target.entries:
            raise BandViolation(f"order {r} >= n = {n}: image is zero only")
        zero = [UTMatrix.zeros(FieldRing(desc), n) for _ in range(p.nvars)]
        achieved = evaluate(p, zero)
        rep = verify(p, zero, target=target, tolerance=opt.tolerance)
        return WitnessResult(zero, achieved, "exact", 0.0,
                             {"attempts": 0, "leading_tuple": None,
                              "diagonals": None, "seed": opt.seed}, rep)
    if not target.in_band(r - 1):
        raise BandViolation(
            f"target has a nonzero entry with k - j <= {r - 1}")

    rng = random.Random(opt.seed)
    leads = leading_tuples(p, r)
    generic = generic_evaluate(p, n, opt.monomial_budget)
    last_entry = None
    for attempt in range(opt.retries):
        lead = leads[attempt % len(leads)]
        plan = build_sweep_plan_rn(r, n, lead)
        diags = find_diagonals(p, lead, n, rng, opt.diag_budget, opt.height)
        assign = PartialAssignment(desc)
        for j in range(1, n + 1):
            for i in range(1, p.nvars + 1):
                assign.set(diag_var(j, i), diags[j - 1][i - 1])
        fresh_keys = {e.fresh for e in plan.entries}
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                for i in range(1, p.nvars + 1):
                    key = entry_var(j, k, i)
                    if key not in fresh_keys:
                        assign.set(key, desc.sample(rng, opt.height))
        ok = True
        for e in plan.entries:
            cur = generic.entry(e.s, e.t).eval_partial(assign.values)
            if cur.degree_in(e.fresh) > 1:
                raise InternalInconsistency(
                    f"entry ({e.s},{e.t}) not affine in its fresh variable")
            slope = cur.coefficient_of([e.fresh])
            offset = cur.eval_partial({e.fresh: desc.zero()})
            if not (slope.is_constant() and offset.is_constant()):
                raise InternalInconsistency(
                    f"entry ({e.s},{e.t}) still has unassigned variables")
            c = slope.constant_value()
            if desc.is_zero(c):
                ok = False
                last_entry = (e.s, e.t)
                break
            v = (target.entry(e.s, e.t) - offset.constant_value()) / c
            assign.set(e.fresh, v)
        if not ok:
            continue
        diagnostics = {
            "attempts": attempt + 1,
            "leading_tuple": list(lead),
            "diagonals": [[desc.render_value(v) for v in row] for row in diags],
            "seed": opt.seed,
        }
        result = _finish(p, desc, assign.values, n, target, diagnostics,
                         opt.tolerance)
        if result is not None:
            return result
        last_entry = last_entry or ("verify",)
    raise DegenerateCoefficient(
        f"no usable slope after {opt.retries} attempts"
        + (f" (last failing entry {last_entry})" if last_entry else ""),
        entry=last_entry)


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
    desc = p.field
    if target.n != n:
        raise BandViolation(f"target size {target.n} != n = {n}")
    r = exact_order(p, opt.order_cap)
    if r != 0:
        raise OrderMismatch(f"order is {r}, not 0")
    m = p.nvars
    rng = random.Random(opt.seed)
    generic = generic_evaluate(p, n, opt.monomial_budget)
    arc_polys = {i: coeff_poly(p, (i,)) for i in range(1, m + 1)}
    live_slots = [i for i in range(1, m + 1) if not arc_polys[i].is_zero()]
    if not live_slots:
        raise InternalInconsistency("no nonzero single-arc coefficient at order 0")

    last_error = None
    last_entry = None
    for attempt in range(opt.retries):
        # diagonals: row by row
        diags = []
        ok = True
        for j in range(1, n + 1):
            want = target.entry(j, j)
            solved = None
            for _ in range(8):
                slot = rng.randrange(1, m + 1)
                point = [desc.sample(rng, opt.height) for _ in range(m)]
                coeffs = _univariate_restriction(p, slot, point)
                if all(desc.is_zero(c) for c in coeffs[1:]):
                    continue  # constant restriction; re-roll
                try:
                    root = solve_univariate(desc, coeffs, want, rng,
                                            root_tol=opt.tolerance)
                except NoRootInField as exc:
                    last_error = exc
                    continue
                point[slot - 1] = root
                solved = tuple(point)
                break
            if solved is None:
                ok = False
                break
            diags.append(solved)
        if not ok:
            continue

        assign = PartialAssignment(desc)
        for j in range(1, n + 1):
            for i in range(1, m + 1):
                assign.set(diag_var(j, i), diags[j - 1][i - 1])
        ok = True
        for span in range(1, n):
            if not ok:
                break
            for s in range(1, n - span + 1):
                t = s + span
                pair = {}
                for i in range(1, m + 1):
                    pair[diag_var(1, i)] = diags[s - 1][i - 1]
                    pair[diag_var(2, i)] = diags[t - 1][i - 1]
                star = None
                for i in live_slots:
                    if not desc.is_zero(arc_polys[i].eval_full(pair)):
                        star = i
                        break
                if star is None:
                    ok = False
                    last_entry = (s, t)
                    break
                fresh = entry_var(s, t, star)
                for i in range(1, m + 1):
                    if i != star:
                        assign.set(entry_var(s, t, i),
                                   desc.sample(rng, opt.height))
                cur = generic.entry(s, t).eval_partial(assign.values)
                if cur.degree_in(fresh) > 1:
                    raise InternalInconsistency(
                        f"entry ({s},{t}) not affine in {render_var(fresh)}")
                slope = cur.coefficient_of([fresh])
                offset = cur.eval_partial({fresh: desc.zero()})
                if not (slope.is_constant() and offset.is_constant()):
                    raise InternalInconsistency(
                        f"entry ({s},{t}) still has unassigned variables")
                c = slope.constant_value()
                if desc.is_zero(c):
                    ok = False
                    last_entry = (s, t)
                    break
                v = (target.entry(s, t) - offset.constant_value()) / c
                assign.set(fresh, v)
        if not ok:
            continue
        diagnostics = {
            "attempts": attempt + 1,
            "leading_tuple": None,
            "diagonals": [[desc.render_value(v) for v in row] for row in diags],
            "seed": opt.seed,
        }
        result = _finish(p, desc, assign.values, n, target, diagnostics,
                         opt.tolerance)
        if result is not None:
            return result
        last_entry = last_entry or ("verify",)
    if last_error is not None and last_entry is None:
        raise NoRootInField(
            f"diagonal equation unsolvable in {desc.render()} after "
            f"{opt.retries} attempts (complex base field always has roots)")
    raise DegenerateCoefficient(
        f"no usable slope after {opt.retries} attempts"
        + (f" (last failing entry {last_entry})" if last_entry else ""),
        entry=last_entry)


def band_coordinates(n: int, r: int) -> list[tuple]:
    """Positions (s,t) with t - s >= r, the coordinates of band r-1."""
    return [(s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1)
            if t - s >= r]


def hit_open_set(p: NcPolynomial, n: int, f: CPolynomial,
                 options: SolveOptions | None = None) -> WitnessResult:
    """Matrices u with f nonzero at the output coordinates of p(u).

    f is a polynomial in y[s,t] over the band coordinates.  Strategy:
    sample a coordinate point where f is nonzero, aim solve_target at it,
    and fall back to fully random tuples if the solver degenerates (the
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
    for attempt in range(opt.retries):
        point = {out_var(s, t): desc.sample(rng, opt.height) for s, t in coords}
        value = f.eval_full(point)
        if desc.is_zero(value):
            continue
        target = UTMatrix(ring, n, {(s, t): point[out_var(s, t)]
                                    for s, t in coords})
        sub = SolveOptions(seed=rng.randrange(2 ** 30), retries=4,
                           height=opt.height, tolerance=opt.tolerance,
                           diag_budget=opt.diag_budget,
                           nonzero_budget=opt.nonzero_budget,
                           order_cap=opt.order_cap,
                           monomial_budget=opt.monomial_budget)
        try:
            result = solve_target(p, n, target, sub)
        except (DegenerateCoefficient, BudgetExhausted):
            solver_failures += 1
            continue
        achieved_value = f.eval_full({
            out_var(s, t): result.achieved.entry(s, t) for s, t in coords})
        if _open_ok(desc, achieved_value, opt.tolerance):
            result.report = verify(p, result.matrices, target=target, f=f,
                                   tolerance=opt.tolerance)
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
        achieved = evaluate(p, matrices)
        value = f.eval_full({out_var(s, t): achieved.entry(s, t)
                             for s, t in coords})
        if _open_ok(desc, value, opt.tolerance):
            rep = verify(p, matrices, f=f, tolerance=opt.tolerance)
            return WitnessResult(
                matrices, achieved,
                "exact" if desc.kind != "complex" else "approx",
                0.0, {"attempts": opt.retries + solver_failures,
                      "leading_tuple": None, "diagonals": None,
                      "seed": opt.seed, "fallback": "random"},
                rep)
    raise BudgetExhausted(
        f"no open-set witness within budget ({solver_failures} solver "
        f"failures, {opt.nonzero_budget} random tuples)")


def _open_ok(desc, value, tolerance: float) -> bool:
    if desc.kind == "complex":
        return abs(value) > tolerance
    return not desc.is_zero(value)


def verify(p: NcPolynomial, matrices: list, target: UTMatrix | None = None,
           f: CPolynomial | None = None, tolerance: float = 1e-9) -> dict:
    """Replay a witness through both evaluation routes and check the
    target or open-set condition.  Never raises for a failed check; the
    report carries the outcome so callers can decide.  The open-set
    coordinates come from the order of p, so with f given a zero p
    raises ZeroInput."""
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
        coords = band_coordinates(direct.n, exact_order(p))
        value = f.eval_full({out_var(s, t): direct.entry(s, t)
                             for s, t in coords})
        report["open_set_value"] = desc.render_value(value)
        report["open_set_met"] = _open_ok(desc, value, tolerance)
    return report
