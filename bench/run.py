"""utpoly benchmark: closed-loop CLI workloads, checked against a golden
corpus and independent oracles, with an optional outside-in layer trace.

    python3 bench/run.py --workload symbolic|witness|dual-eval|all \
        --seed N --seconds S --trace 0|1

Each pass runs in a fresh interpreter (bench/worker.py), so utpoly's
module-level caches start empty and any reuse comes from the workload's
own inputs.  One client sends one request at a time.

--trace 0 prints the end-to-end metrics: throughput and latency of the
untraced pass, its peak RSS over the first rounds, the share of requests
that succeeded, and the set-up time (fresh interpreter + `import
utpoly.cli`, the median of several).  --trace 1 runs an untraced pass,
then a traced pass over the same requests, and prints per-layer counts
and self times plus the tracing overhead.  Times are scaled to a reference interpreter speed
measured during the pass (see YARDSTICK_REF_S); the raw figures are in
the run record.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Files go under .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from workloads import DEFAULT_SEED, WORK_DIR, WORKLOADS  # noqa: E402
from yardstick import yardstick  # noqa: E402

SETUP_SAMPLES = 15
# The machines this runs on are shared: for seconds at a time the same
# work can take up to twice as long, and every kind of Python work slows
# by about the same factor.  The worker therefore times a fixed
# pure-Python task (yardstick.py) just before and after every request,
# and each request's time is scaled by YARDSTICK_REF_S / (median of those
# samples): times read as seconds on a machine where the yardstick takes
# 0.5 ms.  Set-up starts are scaled the same way.  The raw request
# figures are kept in the run record.
YARDSTICK_REF_S = 0.0005
WORKER_TIMEOUT_S = 85       # two passes must end well within 180 s
COMMANDS = ("order", "classify", "coeffs", "eval", "solve", "hit", "verify",
            "oracle-enum")


def tail_percentile(values, q: float) -> float:
    """Nearest-rank q-quantile.  Refuses a percentile with fewer than ten
    samples beyond it, since its value would rest on a handful of them."""
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs)))
    if len(xs) - rank < 10:
        raise ValueError(f"p{q * 100:g} of {len(xs)} samples has "
                         f"{len(xs) - rank} beyond it, fewer than 10")
    return xs[rank - 1]


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict) -> float:
    """Median seconds, at the reference speed, for a fresh interpreter to
    start and import utpoly.cli.  Each start is scaled by the median of
    ten yardstick samples on either side of it (start-up is too short
    for two).  The first start, which may compile bytecode, is not
    counted."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        sticks = [yardstick() for _ in range(10)]
        t0 = perf_counter()
        # no timeout: with one, subprocess polls the child in steps of up
        # to 50 ms, which would quantize the measurement
        subprocess.run([sys.executable, "-c", "import utpoly.cli"], env=env,
                       cwd=ROOT, check=True)
        dt = perf_counter() - t0
        sticks += [yardstick() for _ in range(10)]
        if i:
            times.append(dt * YARDSTICK_REF_S / statistics.median(sticks))
    return statistics.median(times)


def run_worker(env: dict, cfg: dict) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"),
                           json.dumps(cfg)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def scaled_seconds(rec: dict) -> float:
    """A request's time at the reference speed (see YARDSTICK_REF_S)."""
    return rec["seconds"] * YARDSTICK_REF_S / rec["yardstick_s"]


def raw_seconds(rec: dict) -> float:
    return rec["seconds"]


def end_to_end(res: dict, setup_s: float, seconds_of) -> dict:
    """Request times come from seconds_of(record).  Throughput is the
    median over rounds of requests / busy seconds: every round holds the
    same request classes, so a round is one sample and a burst of machine
    noise moves few of them."""
    secs = [seconds_of(r) for r in res["records"]]
    n = len(secs)
    ok = sum(r["ok"] for r in res["records"])
    rounds: dict = {}
    for r in res["records"]:
        rounds.setdefault(r["round"], []).append(seconds_of(r))
    return {
        "requests_per_s": (statistics.median(len(v) / sum(v) for v in rounds.values()),
                           "1/s"),
        "request_ms_p50": (1000 * tail_percentile(secs, 0.5), "ms"),
        "request_ms_p90": (1000 * tail_percentile(secs, 0.9), "ms"),
        "ok_ratio": (ok / n, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    """Counts and self times of the traced pass.  Layer seconds are
    scaled by the pass's time-weighted yardstick factor, request times
    like the end-to-end ones."""
    st = traced["trace"]["stats"]
    records = traced["records"]
    n = len(records)
    traced_s = sum(scaled_seconds(r) for r in records)
    f_traced = traced_s / sum(r["seconds"] for r in records)

    def g(name, key="calls"):
        value = st.get(name, {}).get(key, 0)
        return value * f_traced if key.endswith("_s") else value

    out = {}
    for name in ("generic_evaluate", "evaluate.field", "evaluate.poly",
                 "evaluate_structured", "matmul", "to_json"):
        out[f"triangular.{name}.calls"] = g(f"triangular.{name}")
        out[f"triangular.{name}.self_s"] = g(f"triangular.{name}", "self_s")
    out["triangular.evaluate_structured.incl_s"] = g("triangular.evaluate_structured", "incl_s")
    out["triangular.generic_evaluate.misses"] = g("triangular.generic_evaluate", "misses")
    out["triangular.generic_evaluate.monomials"] = g("triangular.generic_evaluate", "monomials")
    for name in ("mul", "eval_full", "eval_partial"):
        out[f"cpoly.{name}.calls"] = g(f"cpoly.{name}")
        out[f"cpoly.{name}.self_s"] = g(f"cpoly.{name}", "self_s")
    for name in ("order", "coeff_poly", "classify", "leading_tuples"):
        out[f"analysis.{name}.calls"] = g(f"analysis.{name}")
        out[f"analysis.{name}.self_s"] = g(f"analysis.{name}", "self_s")
    out["analysis.order.calls_per_request"] = g("analysis.order") / n
    out["analysis.coeff_poly.hits"] = g("analysis.coeff_poly", "hits")
    out["analysis.coeff_poly.misses"] = g("analysis.coeff_poly", "misses")
    for name in ("solve_target", "solve_diagonal_r0", "hit_open_set",
                 "find_diagonals", "verify"):
        out[f"solver.{name}.calls"] = g(f"solver.{name}")
        out[f"solver.{name}.self_s"] = g(f"solver.{name}", "self_s")
    out["solver.verify.incl_s"] = g("solver.verify", "incl_s")
    solve_s = st.get("cli.main", {}).get("incl_s_by_command", {}).get("solve", 0.0)
    verify_in_solve = st.get("solver.verify", {}).get("incl_s_by_command", {}).get("solve", 0.0)
    out["solver.verify.share_of_solve"] = verify_in_solve / solve_s if solve_s else 0.0
    attempts = [r["attempts"] for r in records if r["attempts"] is not None]
    out["solver.attempts_per_witness"] = sum(attempts) / len(attempts) if attempts else 0.0
    out["fields.solve_univariate.calls"] = g("fields.solve_univariate")
    out["fields.solve_univariate.self_s"] = g("fields.solve_univariate", "self_s")
    out["fields.solve_univariate.no_root"] = st.get("fields.solve_univariate", {}) \
        .get("errors", {}).get("NoRootInField", 0)
    out["parsing.parse.calls"] = g("parsing.parse")
    out["parsing.parse.self_s"] = g("parsing.parse", "self_s")
    out["cli.main.self_s"] = g("cli.main", "self_s")
    for cmd in COMMANDS:
        secs = [scaled_seconds(r) for r in plain["records"] if r["command"] == cmd]
        out[f"cli.{cmd}.calls"] = len(secs)
        out[f"cli.{cmd}.p50_ms"] = 1000 * statistics.median(secs) if secs else 0.0
    out["trace.request_s"] = traced_s
    out["trace_overhead_ratio"] = traced_s / sum(scaled_seconds(r) for r in plain["records"])
    units = {"calls": "count", "misses": "count", "hits": "count", "monomials": "count",
             "no_root": "count", "attempts_per_witness": "count", "self_s": "s",
             "incl_s": "s", "request_s": "s", "p50_ms": "ms"}
    return {k: (v, units.get(k.rsplit(".", 1)[-1], "ratio")) for k, v in out.items()}


def git_sha() -> str:
    """HEAD of the checkout's own repository; 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: int, trace: bool, env: dict) -> dict:
    cfg = {"workload": name, "seed": seed, "seconds": seconds, "trace": False,
           "golden": seed == DEFAULT_SEED}
    plain = run_worker(env, cfg)
    failures = list(plain["failures"])
    raw = None
    if trace:
        traced = run_worker(env, dict(cfg, trace=True,
                                      rounds=plain["records"][-1]["round"] + 1))
        failures += traced["failures"]
        for i, (a, b) in enumerate(zip(plain["records"], traced["records"])):
            if (a["exit"], a["sha256"]) != (b["exit"], b["sha256"]):
                failures.append({"index": i, "argv": a["argv"],
                                 "reason": "stdout differs with tracing on"})
        metrics = per_layer(plain, traced)
    else:
        setup_s = measure_setup(env)
        metrics = end_to_end(plain, setup_s, scaled_seconds)
        raw = {k: v for k, (v, _) in end_to_end(plain, setup_s, raw_seconds).items()
               if k != "setup_s"}
    n = len(plain["records"])
    return {
        "record": {
            "workload": name, "seed": seed, "seconds": seconds,
            "requests": n, "golden_checked": plain["golden_checked"],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "client": "closed loop, one client",
            "cold": "every pass starts in a fresh interpreter with empty caches",
            "yardstick_s": plain["yardstick_s"],
            "raw": raw,
        },
        "correct": not failures, "attempted": n,
        "failed": len({f["index"] for f in failures}),
        "failures": failures, "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "utpoly", "cli.py")):
        sys.stderr.write(f"utpoly sources not found under {ROOT}/src\n")
        return 2
    env = _env()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), env)
               for w in names]
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    for res in results:
        w = res["record"]["workload"]
        with open(os.path.join(ROOT, WORK_DIR, f"result-{w}-trace{args.trace}.json"), "w") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
        print("record " + json.dumps(res["record"], sort_keys=True))
        for f in res["failures"][:5]:
            print(f"FAILED {w} #{f['index']}: {f['reason'][:300]} argv={f['argv']}")
        for metric, (value, unit) in res["metrics"].items():
            print(f"{w:10s} {metric:42s} {value:14.6g} {unit}")
        if not args.trace:
            print(f"{w:10s} {'fail_ratio':42s} {res['failed'] / res['attempted']:14.6g} ratio")
    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['record']['workload']}.{k}" if prefix else k):
                    {"value": v, "unit": u}
                    for r in results for k, (v, u) in r["metrics"].items()},
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
