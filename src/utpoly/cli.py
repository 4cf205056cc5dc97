"""Command-line front end.

Machine output is a single JSON document on stdout (stable key order,
compact separators, one trailing newline) so runs are byte-reproducible
given the same arguments and seed.  Human-oriented notes go to stderr.
Exit codes: 0 success, 1 usage/parse problems, 2 domain errors, 3
exhausted randomized budgets.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import islice, product

from .analysis import classify, coeff_poly, leading_tuples, order
from .cpoly import CPolynomial
from .errors import (ParseError, ResourceLimit, UsageError, UtpolyError,
                     ZeroInput)
from .fields import FieldDescriptor
from .freealg import NcPolynomial, shared_parse
from .parsing import is_digits
from .solver import SolveOptions, hit_open_set, solve_target, verify
from .triangular import (UTMatrix, evaluate, evaluate_structured,
                         generic_evaluate, matrix_json)

ORACLE_PRIMES = (2, 3, 5)
ORACLE_TUPLE_LIMIT = 10 ** 8
ORACLE_CHUNK = 4096      # tuples evaluated at once, one lane each: bounds memory
ORACLE_NOTE = ("exhaustive finite-field enumeration; validates evaluation "
               "and band containment at desk scale, says nothing about "
               "density (an infinite-field notion)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _integer(text: str) -> int:
    """The type of every integer flag: ASCII digits after an optional
    sign.  int() alone would also read blanks, underscores and other
    Unicode digits (' 7 ', '1_0', '\u0662')."""
    if not is_digits(text[1:] if text[:1] in "+-" else text):
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    return int(text)


def _slot_tuple(text: str) -> tuple:
    """--slots: comma-separated integers, e.g. '1,2'."""
    return tuple(_integer(part) for part in text.split(","))


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":"),
                                allow_nan=False) + "\n")


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"file not found: {path}") from None
    except ValueError as exc:
        # a JSONDecodeError, or an integer past Python's int-string limit
        raise ParseError(f"bad JSON in {path}: {exc}") from None


def _options(args, **extra) -> SolveOptions:
    """SolveOptions from the flags in _SWEEP_FLAGS, plus extra fields."""
    return SolveOptions(seed=args.seed, retries=args.retries, height=args.height,
                        diag_budget=args.diag_budget, **extra)


def _matrices_from_file(path: str, desc: FieldDescriptor):
    """The matrix tuple in path."""
    data = _read_json(path)
    if isinstance(data, dict) and "matrices" in data:
        items = data["matrices"]
        if not isinstance(items, list):
            raise ParseError(f"\"matrices\" in {path} must be a list")
    elif isinstance(data, list):
        items = data
    else:
        items = [data]
    return [UTMatrix.from_json(item, desc) for item in items]


def _target_from_file(path: str, desc: FieldDescriptor) -> UTMatrix:
    data = _read_json(path)
    if isinstance(data, dict) and "matrices" in data:
        raise UsageError(f"{path} holds a matrix tuple, expected one matrix")
    return UTMatrix.from_json(data, desc)


_FLAGS = {
    "--n": dict(type=_integer, required=True, help="matrix size"),
    "--max-n": dict(type=_integer, default=None, help="cap for the order search"),
    "--seed": dict(type=_integer, default=0),
    "--retries": dict(type=_integer, default=16),
    "--height": dict(type=_integer, default=256,
                     help="sampling height for random field elements"),
    "--diag-budget": dict(type=_integer, default=200),
    "--nonzero-budget": dict(type=_integer, default=200),
}
# the flags every witness construction (solve, hit) reads
_SWEEP_FLAGS = ("--n", "--seed", "--retries", "--height", "--diag-budget")
# the dests of the integer flags that must be at least 1 (Q samples
# denominators from [1, height]); main refuses a smaller value before
# any file or polynomial is read
_BOUNDED = ("n", "max_n", "height", "retries", "diag_budget", "nonzero_budget")
# and the most the budget flags may ask for, refused there too: alone at
# 10^4 each ran at most 1.5 s on the cases measured; tier-1 reaches 200
_MAXIMA = dict.fromkeys(("retries", "diag_budget", "nonzero_budget"), 10 ** 4)
# and the most diagonal samples hit's sweeps may draw, --retries times
# --diag-budget: at 10^6 the slowest measured case ran 5.6 s; tier-1, the
# golden corpus and the bench reach 3200 (16 * 200, the defaults)
_MAX_HIT_SAMPLES = 10 ** 6


def _add_common(sp, *flags):
    """--poly, --field and --m, then the named flags of _FLAGS."""
    sp.add_argument("--poly", required=True, help="polynomial text, e.g. 'x1*x2-x2*x1'")
    sp.add_argument("--field", default="Q", help="Q | Fp:<prime> | C[:<tolerance>]")
    sp.add_argument("--m", type=_integer, default=None,
                    help="number of variables (default: largest index used)")
    for flag in flags:
        sp.add_argument(flag, **_FLAGS[flag])


@cache
def build_parser() -> argparse.ArgumentParser:
    """Each subcommand declares only the flags its _cmd_* reads.  Built
    once per process, as parsing leaves it unchanged; a build takes about
    1.2 ms, and without the cache symbolic and witness bench requests
    took 50-90 % longer."""
    ap = _Parser(prog="utpoly", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("order", help="order invariant of a polynomial")
    _add_common(sp, "--max-n", "--height")

    sp = sub.add_parser("classify", help="image shape on size-n matrices")
    _add_common(sp, "--n")

    sp = sub.add_parser("eval", help="evaluate on a matrix tuple")
    _add_common(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrices", help="JSON file with {\"matrices\": [...]}")
    group.add_argument("--generic", action="store_true",
                       help="evaluate at the generic symbolic tuple")
    sp.add_argument("--n", type=_integer, default=None,
                    help="matrix size (--generic only, and required there)")
    sp.add_argument("--route", choices=("direct", "structured"), default=None,
                    help="evaluation route (--matrices only, default direct)")

    sp = sub.add_parser("coeffs", help="coefficient polynomials of arc chains")
    _add_common(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--slots", type=_slot_tuple,
                       help="comma-separated slot tuple, e.g. 1,2")
    group.add_argument("--leading", type=_integer, metavar="R",
                       help="list all nonzero slot tuples of length R")

    sp = sub.add_parser("solve", help="witness matrices hitting a target")
    _add_common(sp, *_SWEEP_FLAGS)
    sp.add_argument("--target", required=True, help="target matrix JSON file")

    sp = sub.add_parser("hit", help="witness matrices inside an open set")
    _add_common(sp, *_SWEEP_FLAGS, "--nonzero-budget")
    sp.add_argument("--open-set", required=True,
                    help="nonzero polynomial in y[s,t] coordinates")

    sp = sub.add_parser("oracle-enum",
                        help="exhaustive finite-field image enumeration")
    _add_common(sp, "--n")

    sp = sub.add_parser("verify", help="replay a witness through both evaluators")
    _add_common(sp)
    sp.add_argument("--witness", required=True,
                    help="JSON file with {\"matrices\": [...]} (solve output works)")
    sp.add_argument("--target", default=None, help="target matrix JSON file")
    sp.add_argument("--open-set", default=None,
                    help="open-set polynomial in y[s,t]")

    return ap


def _cmd_order(args, desc: FieldDescriptor, p: NcPolynomial) -> None:
    rep = order(p, max_n=args.max_n, sample_height=args.height)
    _emit(rep.to_json(desc))


def _cmd_classify(args, desc: FieldDescriptor, p: NcPolynomial) -> None:
    _emit(classify(p, args.n).to_json())


def _cmd_eval(args, desc: FieldDescriptor, p: NcPolynomial) -> None:
    if args.generic:
        if args.n is None:
            raise UsageError("--generic needs --n")
        if args.route is not None:
            raise UsageError("--route takes --matrices: --generic has no route")
        out = matrix_json(args.n, "poly", generic_evaluate(p, args.n),
                          CPolynomial.render)
    else:
        if args.n is not None:
            raise UsageError("--n takes --generic: a --matrices file gives its own size")
        mats = _matrices_from_file(args.matrices, desc)
        route = evaluate_structured if args.route == "structured" else evaluate
        out = route(p, mats).to_json()
    _emit({"result": out})


def _cmd_coeffs(args, desc: FieldDescriptor, p: NcPolynomial) -> None:
    if args.leading is not None:
        tuples = leading_tuples(p, args.leading)
        _emit({"r": args.leading, "leading_tuples": [list(t) for t in tuples]})
        return
    q = coeff_poly(p, args.slots)
    _emit({"slots": list(args.slots), "coeff_poly": q.render(), "is_zero": q.is_zero()})


def _cmd_solve(args, desc: FieldDescriptor, p: NcPolynomial) -> None:
    target = _target_from_file(args.target, desc)
    _emit(solve_target(p, args.n, target, _options(args)).to_json())


def _cmd_hit(args, desc: FieldDescriptor, p: NcPolynomial) -> None:
    f = CPolynomial.parse(args.open_set, desc, kinds="y")
    opt = _options(args, nonzero_budget=args.nonzero_budget)
    _emit(hit_open_set(p, args.n, f, opt).to_json())


def _cmd_verify(args, desc: FieldDescriptor, p: NcPolynomial) -> None:
    mats = _matrices_from_file(args.witness, desc)
    target = None
    f = None
    if args.target:
        target = _target_from_file(args.target, desc)
    if args.open_set:
        f = CPolynomial.parse(args.open_set, desc, kinds="y")
    report = verify(p, mats, target=target, f=f)
    _emit(report)


class _LaneTables:
    """Byte tables for the lanes of F_p, p <= 5, each read by
    bytes.translate: index x gives the residue of x, of c*x or of x**e,
    and index x*p + y that of x*y (x, y residues).  The first three are
    periodic in x with period p, so each repeats its p residues; mul is
    read only below p*p, and its other entries are zero."""

    def __init__(self, p: int):
        self.p = p
        self.mod = self._periodic(range(p))
        self.mul = bytes(x * y % p for x in range(p)
                         for y in range(p)).ljust(256, b"\0")
        self.scale = [self._periodic(x * c % p for x in range(p))
                      for c in range(p)]
        self.pows: dict = {}

    def _periodic(self, residues) -> bytes:
        """The 256-byte table whose entry x is residues[x % p]."""
        return (bytes(residues) * (256 // self.p + 1))[:256]

    def power(self, e: int) -> bytes:
        if e not in self.pows:
            self.pows[e] = self._periodic(pow(x, e, self.p)
                                          for x in range(self.p))
        return self.pows[e]


class _Lanes:
    """One matrix entry's values over a chunk of oracle-enum tuples, one
    lane per tuple, as residues mod p in one byte each.

    The evaluation routes take these where they take F_p ints: +, * and
    ** by an int act lane by lane, with a plain int on either side; % p
    is the identity, the lanes being reduced; truthiness says whether
    some lane is nonzero and == whether two vectors are equal in every
    lane (the routes' entries are all vectors or dropped).  Residues
    are enough, since every value a route returns passes through % p and
    reduction mod p commutes with + and *.  A lane sum or product packs
    the lanes into one int, a byte each: for p <= 5, x + y and x*p + y
    stay below 256, so no lane carries into the next, and one translate
    reduces them all."""

    __slots__ = ("data", "tables")

    def __init__(self, data: bytes, tables: _LaneTables):
        self.data = data
        self.tables = tables

    def _packed(self, value: int, table: bytes) -> "_Lanes":
        data = value.to_bytes(len(self.data), "big").translate(table)
        return _Lanes(data, self.tables)

    def __add__(self, other):
        if isinstance(other, int):
            c = other % self.tables.p
            if not c:
                return self
            other = _Lanes(bytes([c]) * len(self.data), self.tables)
        return self._packed(int.from_bytes(self.data, "big")
                            + int.from_bytes(other.data, "big"), self.tables.mod)

    __radd__ = __add__

    def __mul__(self, other):
        t = self.tables
        if isinstance(other, int):
            c = other % t.p
            return self if c == 1 else _Lanes(self.data.translate(t.scale[c]), t)
        return self._packed(int.from_bytes(self.data, "big") * t.p
                            + int.from_bytes(other.data, "big"), t.mul)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "_Lanes":
        return _Lanes(self.data.translate(self.tables.power(e)), self.tables)

    def __mod__(self, p: int):
        return self if p == self.tables.p else NotImplemented

    def __bool__(self) -> bool:
        return self.data.count(0) < len(self.data)

    def __eq__(self, other):
        if isinstance(other, _Lanes):
            return self.data == other.data
        return NotImplemented


def _cmd_oracle_enum(args, desc: FieldDescriptor, p: NcPolynomial) -> None:
    """p at every tuple over F_q, ORACLE_CHUNK tuples at a time: each
    route runs once per chunk on matrices of _Lanes, lane i of a chunk
    being its i-th tuple in product() order.  The routes branch on a
    value only through the zero filter, which on lanes drops only an
    entry that is zero in every tuple, so each lane is that tuple's
    evaluation; the image keys are read lane by lane."""
    n = args.n
    m = p.nvars
    if desc.kind != "prime" or desc.p not in ORACLE_PRIMES:
        raise UsageError(f"oracle-enum needs --field Fp:q with q in {ORACLE_PRIMES}")
    if n > 3:
        raise ResourceLimit("oracle-enum is capped at n <= 3")
    if m > 2:
        raise ResourceLimit("oracle-enum is capped at m <= 2 variables")
    cells = m * n * (n + 1) // 2
    total = desc.p ** cells
    if total > ORACLE_TUPLE_LIMIT:
        raise ResourceLimit(
            f"{desc.p}^{cells} = {total} tuples exceeds {ORACLE_TUPLE_LIMIT}")
    tables = _LaneTables(desc.p)
    positions = [(j, k) for j in range(1, n + 1) for k in range(j, n + 1)]
    # one digit per cell, matrix 1's positions first: the tuples' order
    digits = product(range(desc.p), repeat=cells)
    image = {}
    dual_ok = True
    for _ in range(0, total, ORACLE_CHUNK):
        chunk = list(islice(digits, ORACLE_CHUNK))
        columns = iter(zip(*chunk))
        mats = [UTMatrix(desc, n, {pos: _Lanes(bytes(next(columns)), tables)
                                   for pos in positions})
                for _ in range(m)]
        out = evaluate(p, mats)
        if dual_ok and not out.eq(evaluate_structured(p, mats)):
            dual_ok = False
        cols = sorted(out.entries.items())
        for values in set(zip(*(v.data for _, v in cols))) or {()}:
            key = tuple((pos, v) for (pos, _), v in zip(cols, values) if v)
            if key not in image:
                image[key] = UTMatrix._of(desc, n, dict(key))
    band_counts: dict = {}
    for mat in image.values():
        lvl = mat.band_level()
        band_counts[str(lvl)] = band_counts.get(str(lvl), 0) + 1
    _emit({
        "note": ORACLE_NOTE,
        "q": desc.p,
        "n": n,
        "m": m,
        "tuples": total,
        "dual_evaluation_agrees": dual_ok,
        "image_size": len(image),
        "band_counts": band_counts,
        "image": [image[k].to_json() for k in sorted(image)],
    })


_COMMANDS = {
    "order": _cmd_order,
    "classify": _cmd_classify,
    "eval": _cmd_eval,
    "coeffs": _cmd_coeffs,
    "solve": _cmd_solve,
    "hit": _cmd_hit,
    "oracle-enum": _cmd_oracle_enum,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for dest in _BOUNDED:
            value = getattr(args, dest, None)
            if value is not None and value < 1:
                raise ZeroInput(f"{dest} must be at least 1")
            if value is not None and value > _MAXIMA.get(dest, value):
                raise ResourceLimit(f"--{dest.replace('_', '-')} {value} is past "
                                    f"the limit of {_MAXIMA[dest]}")
        if args.command == "hit" and args.retries * args.diag_budget > _MAX_HIT_SAMPLES:
            raise ResourceLimit(f"--retries {args.retries} times --diag-budget "
                                f"{args.diag_budget} is {args.retries * args.diag_budget}, "
                                f"past the limit of {_MAX_HIT_SAMPLES}")
        desc = FieldDescriptor.parse(args.field)
        p = shared_parse(args.poly, desc, args.m)
        _COMMANDS[args.command](args, desc, p)
    except UtpolyError as exc:
        sys.stderr.write(f"utpoly: {type(exc).__name__}: {exc}\n")
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
