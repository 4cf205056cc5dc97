"""Outside-in tracing of utpoly: wrap public functions from the outside.

install() replaces each traced function by a timing wrapper in *every*
utpoly module namespace that binds it, because `from .x import f` copies
the name (solver and cli both do this) and a call through the copy would
otherwise escape a wrapper on the defining module.  Methods are patched
on their class.  uninstall() puts every original object back.

Per name the tracer keeps calls, self time (duration minus the time of
traced callees) and inclusive time.  Spans of the coarser layers are kept
in memory, up to SPAN_LIMIT of them, and written out when the run ends.
Nothing here prints, so the traced program's stdout is unchanged.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

SPAN_LIMIT = 50_000

# (module, attribute path, metric name, keep spans)
TARGETS = (
    ("utpoly.cli", "main", "cli.main", True),
    ("utpoly.triangular", "generic_evaluate", "triangular.generic_evaluate", True),
    ("utpoly.triangular", "evaluate", "triangular.evaluate", True),
    ("utpoly.triangular", "evaluate_structured", "triangular.evaluate_structured", True),
    ("utpoly.triangular", "UTMatrix.__matmul__", "triangular.matmul", False),
    ("utpoly.triangular", "UTMatrix.to_json", "triangular.to_json", False),
    ("utpoly.cpoly", "CPolynomial.__mul__", "cpoly.mul", False),
    ("utpoly.cpoly", "CPolynomial.eval_full", "cpoly.eval_full", False),
    ("utpoly.cpoly", "CPolynomial.eval_partial", "cpoly.eval_partial", False),
    ("utpoly.cpoly", "CPolynomial.parse", "parsing.parse", False),
    ("utpoly.freealg", "NcPolynomial.parse", "parsing.parse", False),
    ("utpoly.analysis", "order", "analysis.order", True),
    ("utpoly.analysis", "coeff_poly", "analysis.coeff_poly", False),
    ("utpoly.analysis", "classify", "analysis.classify", True),
    ("utpoly.analysis", "leading_tuples", "analysis.leading_tuples", True),
    ("utpoly.solver", "solve_target", "solver.solve_target", True),
    ("utpoly.solver", "solve_diagonal_r0", "solver.solve_diagonal_r0", True),
    ("utpoly.solver", "hit_open_set", "solver.hit_open_set", True),
    ("utpoly.solver", "find_diagonals", "solver.find_diagonals", True),
    ("utpoly.solver", "verify", "solver.verify", True),
    ("utpoly.fields", "solve_univariate", "fields.solve_univariate", True),
)


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "errors", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.errors: dict = {}     # exception class name -> count
        self.extra: dict = {}      # named counters and per-command times


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self.spans: list = []      # (name, start, end, parent index, request)
        self.dropped = 0
        self.request = -1
        self.command = None
        self.originals: dict = {}  # metric name -> original function object
        self._patches: list = []   # (owner, attribute, original)
        self._stack: list = []     # [child seconds, span index] per open call

    # -- request bookkeeping, driven by the caller ----------------------------

    def begin_request(self, index: int, command: str):
        self.request = index
        self.command = command

    def stat(self, name: str) -> Stat:
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = Stat()
        return s

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str, keep_spans: bool):
        stack = self._stack
        spans = self.spans
        tracer = self
        split = name == "triangular.evaluate"

        def traced(*args, **kwargs):
            key = name
            if split:
                mats = args[1] if len(args) > 1 else kwargs.get("matrices")
                key = f"{name}.{mats[0].ring.kind}" if mats else f"{name}.field"
            frame = [0.0, -1]
            if keep_spans:
                if len(spans) < SPAN_LIMIT:
                    parent = stack[-1][1] if stack else -1
                    frame[1] = len(spans)
                    spans.append([key, 0.0, 0.0, parent, tracer.request])
                else:
                    tracer.dropped += 1
            stack.append(frame)
            error = None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                s = tracer.stat(key)
                s.calls += 1
                s.self_s += dt - frame[0]
                s.incl_s += dt
                if error is not None:
                    s.errors[error] = s.errors.get(error, 0) + 1
                if keep_spans:
                    by_cmd = s.extra.setdefault("incl_s_by_command", {})
                    by_cmd[tracer.command] = by_cmd.get(tracer.command, 0.0) + dt
                    if frame[1] >= 0:
                        spans[frame[1]][1] = t0
                        spans[frame[1]][2] = t1

        traced.__wrapped__ = fn
        return traced

    def _generic_wrapper(self, fn):
        """Count generic_evaluate misses (an evaluate on the polynomial
        ring underneath) and the monomials those misses produce."""
        tracer = self

        def generic_evaluate(*args, **kwargs):
            before = tracer.stat("triangular.evaluate.poly").calls
            out = fn(*args, **kwargs)
            if tracer.stat("triangular.evaluate.poly").calls > before:
                s = tracer.stat("triangular.generic_evaluate").extra
                s["misses"] = s.get("misses", 0) + 1
                s["monomials"] = s.get("monomials", 0) + sum(
                    len(v.terms) for v in out.entries.values())
            return out
        return generic_evaluate

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "utpoly" or name.startswith("utpoly.")) and m is not None]
        for modname, path, name, keep in TARGETS:
            module = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr, raw,
                              classmethod(self._wrap(raw.__func__, name, keep)))
                else:
                    self._set(owner, attr, raw, self._wrap(raw, name, keep))
                self.originals.setdefault(name, raw)
                continue
            original = getattr(module, path)
            body = original
            if name == "triangular.generic_evaluate":
                body = self._generic_wrapper(original)
            inner = self._wrap(body, name, keep)
            self.originals[name] = original
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, original, inner)

    def _set(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str):
        names = sorted({s[0] for s in self.spans})
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": names, "dropped": self.dropped}) + "\n")
            index = {n: i for i, n in enumerate(names)}
            for name, t0, t1, parent, req in self.spans:
                fh.write(json.dumps([index[name], round(t0, 7), round(t1, 7),
                                     parent, req]) + "\n")
