"""Seeded request streams for the three workloads.

A workload is an endless sequence of rounds.  Every round holds the same
request classes in the same order (command, field, order r, size n); only
the random polynomials, targets and tuples change from round to round and
from seed to seed.  Round k is generated from its own random.Random keyed
on (workload, seed, k), so a run of N requests is reproducible on its own.

A round is a generator: it yields Request objects and is sent each
request's stdout back, which lets a witness session replay the output of
its own `solve`.  Each Request carries the checks that decide whether its
output is right; see oracle.py for the arithmetic they rely on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import product

import oracle as O

WORK_DIR = ".bench_work"
DEFAULT_SEED = 0


@dataclass
class Request:
    argv: list
    check: object                      # callable(stdout: str) -> reason | None
    expect_exit: int = 0
    files: dict = field(default_factory=dict)   # path -> text, written first

    @property
    def command(self) -> str:
        return self.argv[0]


def _join(F: O.Field, parts) -> str:
    """Text of sum c * body over (c, body) parts, e.g. '3/2*x1*x2 - x2*x1'."""
    pieces = []
    for c, body in parts:
        sign, mag = ("-", -c) if F.kind == "Q" and c < 0 else ("+", c)
        if F.kind == "C":
            text = f"({F.render(c)})*{body}"
        else:
            text = body if mag == 1 else f"{mag}*{body}"
        if not pieces:
            pieces.append(text if sign == "+" else f"-{text}")
        else:
            pieces.append(f" {sign} {text}")
    return "".join(pieces)


def _poly_text(F: O.Field, poly: dict) -> str:
    words = sorted(poly, key=lambda w: (len(w), w))
    return _join(F, [(poly[w], "*".join(f"x{i}" for i in w)) for w in words])


def _comm_text(pairs) -> str:
    return "*".join(f"(x{a}*x{b}-x{b}*x{a})" for a, b in pairs)


def _comm_product(F: O.Field, pairs) -> dict:
    out = None
    for a, b in pairs:
        c = O.commutator(F, a, b)
        out = c if out is None else O.nc_mul(F, out, c)
    return out


def _pairs(rng, k: int, m: int) -> list:
    out = []
    for _ in range(k):
        a, b = rng.sample(range(1, m + 1), 2)
        out.append((a, b))
    return out


def _nonzero_on(F: O.Field, rng, poly: dict, n: int, tries: int = 4) -> bool:
    """True once p is nonzero at a random tuple of size n (a certificate
    that p is not an identity of T_n)."""
    m = O.nvars(poly)
    for _ in range(tries):
        mats = O.random_tuple(F, rng, n, m, 50)
        val = O.evaluate(F, poly, mats)
        if any(not F.is_zero(v) for row in val for v in row):
            return True
    return False


def order_k_poly(F: O.Field, rng, k: int, shape: str, m: int) -> tuple:
    """(text, poly) in exactly x1..xm with order exactly k >= 1.

    Every part holds k commutator factors, each strictly upper on any
    T_n, so p vanishes on T_k; a nonzero value at a random tuple of T_{k+1}
    then certifies that the order is k.  `product` is c*[a,b]*...*[c,d];
    `sum` is c1*x_u*C1 + c2*C2*x_v with C1, C2 such products
    (criterion-4 style).  Only letters and coefficients are random, so
    the cost of a request depends little on the seed."""
    while True:
        pairs = _pairs(rng, k, m)
        c = F.sample_nonzero(rng)
        parts = [(c, _comm_text(pairs))]
        poly = O.nc_scale(F, _comm_product(F, pairs), c)
        if shape == "sum":
            u, v = rng.randint(1, m), rng.randint(1, m)
            pairs2 = _pairs(rng, k, m)
            c2 = F.sample_nonzero(rng)
            parts = [(c, f"x{u}*{parts[0][1]}"), (c2, f"{_comm_text(pairs2)}*x{v}")]
            poly = O.nc_add(F, O.nc_mul(F, O.var(F, u), poly),
                            O.nc_scale(F, O.nc_mul(F, _comm_product(F, pairs2),
                                                   O.var(F, v)), c2))
        if poly and O.nvars(poly) == m and _nonzero_on(F, rng, poly, k + 1):
            return _join(F, parts), poly


def random_dense_poly(F: O.Field, rng, m: int, lengths: dict) -> dict:
    """lengths[L] distinct words of each length L over x1..xm, every
    variable used, with nonzero coefficients."""
    while True:
        poly = {}
        for length, count in sorted(lengths.items()):
            words: set = set()
            while len(words) < count:
                words.add(tuple(rng.randint(1, m) for _ in range(length)))
            poly.update((w, F.sample_nonzero(rng)) for w in sorted(words))
        if all(any(i in w for w in poly) for i in range(1, m + 1)):
            return poly


def _field_poly_argv(cmd: str, F: O.Field, text: str, *rest) -> list:
    return [cmd, f"--poly={text}", "--field", F.spec, *rest]


def _write_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# -- checks -------------------------------------------------------------------------


def check_order(F: O.Field, poly: dict, r: int, rng):
    m = O.nvars(poly)
    # points that must vanish: p is an identity of T_r
    height = 3 if F.kind == "C" else 50     # keeps float cancellation error small
    vanish = [O.random_tuple(F, rng, r, m, height) for _ in range(2)] if r >= 1 else []

    def check(stdout):
        out = json.loads(stdout)
        if out["r"] != r:
            return f"order r={out['r']}, expected {r}"
        if out["max_n"] != O.degree(poly) + 1:
            return f"max_n={out['max_n']}"
        w = out["witness"]
        if w["n"] != r + 1:
            return "witness size"
        if w["point"] is not None:
            mats = O.matrices_from_point(F, w["point"], r + 1, m)
            j, k = w["entry"]
            if F.is_zero(O.evaluate(F, poly, mats)[j - 1][k - 1]):
                return "order witness point gives a zero entry"
        for mats in vanish:
            val = O.evaluate(F, poly, mats)
            if any(not F.is_zero(v) for row in val for v in row):
                return f"p is not an identity of T_{r}"
        return None
    return check


def check_classify(r: int, n: int):
    want = O.expected_classification(r, n)

    def check(stdout):
        out = json.loads(stdout)
        return None if out == want else f"classify {out} != {want}"
    return check


def check_leading(F: O.Field, poly: dict, r: int, rng):
    m = O.nvars(poly)
    points = [[tuple(F.sample(rng, 50) for _ in range(m)) for _ in range(r + 1)]
              for _ in range(6)]

    def check(stdout):
        out = json.loads(stdout)
        listed = {tuple(t) for t in out["leading_tuples"]}
        if out["r"] != r or not listed:
            return "leading tuples header"
        for slots in product(range(1, m + 1), repeat=r):
            if slots in listed:
                if all(F.is_zero(O.chain_coefficient(F, poly, slots, d))
                       for d in points):
                    return f"listed tuple {slots} has a zero coefficient"
            elif not F.is_zero(O.chain_coefficient(F, poly, slots, points[0])):
                return f"tuple {slots} has a nonzero coefficient but is not listed"
        return None
    return check


def check_generic(F: O.Field, poly: dict, n: int, rng):
    m = O.nvars(poly)
    point, mats = O.generic_point(F, rng, n, m)

    def check(stdout):
        out = json.loads(stdout)["result"]
        if out["n"] != n or out["ring"] != "poly":
            return "generic result header"
        want = O.evaluate(F, poly, mats)
        got = O.zeros(F, n)
        for e in out["entries"]:
            terms = O.parse_commutative(F, e["value"])
            got[e["j"] - 1][e["k"] - 1] = O.eval_commutative(F, terms, point)
        return None if O.same_matrix(F, got, want) else \
            "generic evaluation disagrees with the dense evaluator"
    return check


def check_eval(F: O.Field, poly: dict, mats: list):
    want = O.evaluate(F, poly, mats)

    def check(stdout):
        got = O.matrix_from_json(F, json.loads(stdout)["result"])
        return None if O.same_matrix(F, got, want) else \
            "evaluation disagrees with the dense evaluator"
    return check


def _witness_value(F: O.Field, poly: dict, out: dict) -> list:
    """p at the witness matrices of a solve or hit output."""
    return O.evaluate(F, poly, [O.matrix_from_json(F, a) for a in out["matrices"]])


def check_solve(F: O.Field, poly: dict, target: list):
    def check(stdout):
        out = json.loads(stdout)
        value = _witness_value(F, poly, out)
        if not O.same_matrix(F, value, target):
            return "witness does not reach the target"
        achieved = O.matrix_from_json(F, out["achieved"])
        if not O.same_matrix(F, achieved, value):
            return "reported 'achieved' is not p(witness)"
        if out["status"] != ("approx" if F.kind == "C" else "exact"):
            return f"status {out['status']}"
        if not out["verify"].get("target_met"):
            return "solve's own verify says the target is missed"
        return None
    return check


def check_no_output(stdout):
    return None if stdout == "" else "stdout on a failing request"


def check_hit(F: O.Field, poly: dict, f_terms: list):
    def check(stdout):
        value = _witness_value(F, poly, json.loads(stdout))
        point = {("y", s, t): value[s - 1][t - 1]
                 for s in range(1, len(value) + 1)
                 for t in range(s, len(value) + 1)}
        fval = O.eval_commutative(F, f_terms, point)
        return "f vanishes at p(witness)" if F.is_zero(fval) else None
    return check


def check_verify(F: O.Field, poly: dict, witness_out: dict, target: list):
    value = _witness_value(F, poly, witness_out)
    band = O.band_level(F, value)

    def check(stdout):
        out = json.loads(stdout)
        if out.get("dual_evaluation_agrees") is not True:
            return "verify: routes disagree"
        if out.get("target_met") is not True:
            return "verify: target not met"
        if out.get("band_level") != band:
            return f"verify: band_level {out.get('band_level')} != {band}"
        if not O.same_matrix(F, value, target):
            return "verify replayed a witness that misses the target"
        return None
    return check


def check_oracle(F: O.Field, poly: dict, n: int, m: int, rng):
    probes = [O.evaluate(F, poly, O.random_tuple(F, rng, n, m)) for _ in range(8)]

    def check(stdout):
        out = json.loads(stdout)
        if out["tuples"] != O.oracle_tuple_count(F.p, n, m):
            return f"tuples={out['tuples']}"
        if (out["q"], out["n"], out["m"]) != (F.p, n, m):
            return "oracle header"
        if out["dual_evaluation_agrees"] is not True:
            return "oracle: routes disagree"
        image = [O.matrix_from_json(F, a) for a in out["image"]]
        if out["image_size"] != len(image):
            return "image_size"
        counts: dict = {}
        for mat in image:
            lvl = str(O.band_level(F, mat))
            counts[lvl] = counts.get(lvl, 0) + 1
        if counts != out["band_counts"]:
            return "image outside its reported bands"
        keys = {tuple(map(tuple, mat)) for mat in image}
        if len(keys) != len(image):
            return "repeated image element"
        for val in probes:
            if tuple(map(tuple, val)) not in keys:
                return "a sampled value of p is missing from the image"
        return None
    return check


# -- workloads -----------------------------------------------------------------------


class Workload:
    """Rounds of requests; subclasses define one round in `round_`."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.seen: set = set()   # polynomials already used in this run
        self.dir = f"{WORK_DIR}/{self.name}"

    def rounds(self):
        k = 0
        while True:
            yield self.round_(random.Random(f"{self.name}:{self.seed}:{k}"))
            k += 1

    def fresh(self, F: O.Field, make):
        """A polynomial from make() not used before in this run."""
        for _ in range(1000):
            text, poly = make()
            key = (F.spec, frozenset(poly.items()))
            if key not in self.seen:
                self.seen.add(key)
                return text, poly
        raise RuntimeError(f"{self.name}: ran out of distinct polynomials")

    def path(self, name: str) -> str:
        return f"{self.dir}/{name}"


class Symbolic(Workload):
    """order, classify, coeffs --leading r and eval --generic, each on a
    polynomial not used before in the run, of order k = 1, 2, 3, over Q
    and F_101, n = 4..7."""

    name = "symbolic"
    FIELDS = (O.Field("Q"), O.Field("Fp:101"))
    # k -> n over (Q, F_101); chosen so that the median request lies
    # inside a cluster of similar costs, not between two
    EVAL_N = {1: (4, 7), 2: (5, 6), 3: (4, 5)}
    NVARS = {1: 3, 2: 4, 3: 4}

    def round_(self, rng):
        for k, cmd, fi in product((1, 2, 3), ("order", "classify", "coeffs", "eval"),
                                  (0, 1)):
            F = self.FIELDS[fi]
            # a multiple of one commutator has too few variants to stay
            # distinct for a long run, so order 1 always uses sums
            shape = "sum" if k == 1 else ("product", "sum")[(k + fi) % 2]
            text, poly = self.fresh(
                F, lambda: order_k_poly(F, rng, k, shape, self.NVARS[k]))
            if cmd == "order":
                yield Request(_field_poly_argv("order", F, text),
                              check_order(F, poly, k, rng))
            elif cmd == "classify":
                n = 4 + (2 * k + fi) % 4
                yield Request(_field_poly_argv("classify", F, text, "--n", str(n)),
                              check_classify(k, n))
            elif cmd == "coeffs":
                yield Request(_field_poly_argv("coeffs", F, text, "--leading", str(k)),
                              check_leading(F, poly, k, rng))
            else:
                n = self.EVAL_N[k][fi]
                yield Request(_field_poly_argv("eval", F, text, "--generic",
                                               "--n", str(n)),
                              check_generic(F, poly, n, rng))


def _band_target(F: O.Field, rng, n: int, r: int) -> list:
    mat = O.zeros(F, n)
    for j in range(n):
        for k in range(j + r, n):
            mat[j][k] = F.sample_nonzero(rng)
    return mat


def _open_set(F: O.Field, rng, n: int, r: int) -> tuple:
    """(text, terms) of a + b*y[s1,t1]*y[s2,t2] + c*y[s3,t3] over band
    coordinates t - s >= r."""
    coords = [(s, t) for s in range(1, n + 1) for t in range(s + r, n + 1)]
    (s1, t1), (s2, t2), (s3, t3) = (rng.choice(coords) for _ in range(3))
    a, b, c = (rng.randint(1, 9) * rng.choice((1, -1)) for _ in range(3))
    text = (f"{b}*y[{s1},{t1}]*y[{s2},{t2}] {'+-'[c < 0]} {abs(c)}*y[{s3},{t3}] "
            f"{'+-'[a < 0]} {abs(a)}")
    terms = [(F.of(b), [(("y", s1, t1), 1), (("y", s2, t2), 1)]),
             (F.of(c), [(("y", s3, t3), 1)]),
             (F.of(a), [])]
    return text, terms


class Witness(Workload):
    """Per polynomial a session order -> classify -> solve -> hit ->
    verify (replaying solve's output).  r = 0 sessions skip hit; the
    NoRootInField session stops at solve (exit 2)."""

    name = "witness"
    SESSIONS = (
        # (r, field, n)
        (1, "Q", 5), (1, "Fp:97", 8), (1, "C", 6),
        (2, "Q", 6), (2, "Fp:97", 7), (2, "C", 5),
        (0, "Fp:20011", 4), (0, "Q", 4), (0, "C", 4),
        ("noroot", "Q", 4),
    )

    def _r0_poly(self, F, rng):
        """Order 0: a*x1 + b*x2*x1*x2 + c*x1*x2 style; nonzero on scalars."""
        while True:
            a, b, c = (F.sample_nonzero(rng) for _ in range(3))
            i, j = rng.sample((1, 2), 2)
            poly = {(i,): a, (j, i, j): b, (i, j): c}
            text = _poly_text(F, poly)
            if _nonzero_on(F, rng, poly, 1):
                return text, poly

    def _noroot_poly(self, F, rng):
        """c*(x1^2 + x2^2) and the factor s = 3c: 3w^2 is no sum of two
        rational squares, so no diagonal equation of a target with
        diagonal s*w^2 has a rational root.  Small c and w keep the
        rational root search (trial division) from dominating the run."""
        c = F.of(rng.randint(1, 3))
        return _join(F, [(c, "(x1^2+x2^2)")]), {(1, 1): c, (2, 2): c}, 3 * c

    def round_(self, rng):
        for r, spec, n in self.SESSIONS:
            F = O.Field(spec)
            if r == "noroot":
                text, poly, scale = self._noroot_poly(F, rng)
                order_r = 0
                target = O.zeros(F, n)
                for j in range(n):
                    target[j][j] = scale * rng.randint(1, 3) ** 2
                    for k in range(j + 1, n):
                        target[j][k] = F.sample(rng)
            elif r == 0:
                text, poly = self.fresh(F, lambda: self._r0_poly(F, rng))
                order_r = 0
                target = _band_target(F, rng, n, 0)
            else:
                text, poly = self.fresh(
                    F, lambda: order_k_poly(F, rng, r, "product", r + 2))
                order_r = r
                target = _band_target(F, rng, n, r)
            yield Request(_field_poly_argv("order", F, text),
                          check_order(F, poly, order_r, rng))
            yield Request(_field_poly_argv("classify", F, text, "--n", str(n)),
                          check_classify(order_r, n))
            tpath = self.path("target.json")
            files = {tpath: _write_json(O.matrix_to_json(F, target))}
            solve_argv = _field_poly_argv("solve", F, text, "--n", str(n),
                                          "--target", tpath)
            if r == "noroot":
                # a lower sampling height, like small c and w in
                # _noroot_poly, bounds the trial division
                yield Request(solve_argv + ["--height", "32"], check_no_output, 2, files)
                continue
            # draw the open set first, so a failed solve that skips the
            # rest of its session leaves later sessions unchanged
            ftext, fterms = _open_set(F, rng, n, r) if r != 0 else (None, None)
            solved = yield Request(solve_argv, check_solve(F, poly, target), 0, files)
            if not solved:
                continue        # the failed solve is recorded; nothing to replay
            if r != 0:
                yield Request(_field_poly_argv("hit", F, text, "--n", str(n),
                                               f"--open-set={ftext}"),
                              check_hit(F, poly, fterms))
            wpath = self.path("witness.json")
            yield Request(_field_poly_argv("verify", F, text, "--witness", wpath,
                                           "--target", tpath),
                          check_verify(F, poly, json.loads(solved), target),
                          0, {wpath: solved, tpath: files[tpath]})


class DualEval(Workload):
    """oracle-enum over F_2, F_3, F_5 (n <= 3, m <= 2) plus eval with the
    direct and the structured route on random dense polynomials (m = 3)
    and random tuples over Q and F_3, n = 4..6."""

    name = "dual-eval"
    ORACLE = ((2, 2, 2), (3, 2, 2), (3, 3, 1), (5, 2, 1))      # (q, n, m)
    ORACLE_LENGTHS = {2: {1: 1, 2: 1, 3: 2}, 3: {1: 1, 2: 1, 3: 1}}   # q -> profile, m = 2
    # word-length profiles (length -> count); structured ones are smaller
    # because that route's cost grows fast with degree and n
    DIRECT = {1: 3, 2: 6, 3: 9, 4: 11, 5: 11}                        # 40 terms
    STRUCTURED = {4: {1: 2, 2: 3, 3: 4, 4: 5, 5: 5},                 # n -> profile
                  5: {1: 2, 2: 3, 3: 3, 4: 4},
                  6: {1: 2, 2: 4, 3: 4}}
    FIELDS = (O.Field("Q"), O.Field("Fp:3"))
    # two direct requests at n = 5 put the median inside the direct class
    SIZES = {"direct": (4, 5, 5, 6), "structured": (4, 5, 6)}

    def round_(self, rng):
        for q, n, m in self.ORACLE:
            F = O.Field(f"Fp:{q}")
            text, poly = self.fresh(F, lambda: self._small(F, rng, q, m))
            yield Request(_field_poly_argv("oracle-enum", F, text, "--n", str(n),
                                           "--m", str(m)),
                          check_oracle(F, poly, n, m, rng))
        for route in ("direct", "structured"):
            for F in self.FIELDS:
                for n in self.SIZES[route]:
                    lengths = self.DIRECT if route == "direct" else self.STRUCTURED[n]
                    text, poly = self.fresh(F, lambda: self._dense(F, rng, lengths))
                    mats = O.random_tuple(F, rng, n, 3)
                    path = self.path("matrices.json")
                    doc = {"matrices": [O.matrix_to_json(F, a) for a in mats]}
                    yield Request(_field_poly_argv("eval", F, text, "--matrices", path,
                                                   "--route", route),
                                  check_eval(F, poly, mats), 0,
                                  {path: _write_json(doc)})

    def _small(self, F, rng, q, m):
        if m == 1:      # one letter: three distinct word lengths
            lengths = dict.fromkeys(rng.sample(range(1, 8), 3), 1)
        else:
            lengths = self.ORACLE_LENGTHS[q]
        poly = random_dense_poly(F, rng, m, lengths)
        return _poly_text(F, poly), poly

    @staticmethod
    def _dense(F, rng, lengths):
        poly = random_dense_poly(F, rng, 3, lengths)
        return _poly_text(F, poly), poly


WORKLOADS = {w.name: w for w in (Symbolic, Witness, DualEval)}
