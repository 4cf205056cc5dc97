"""One pass of one workload, in a fresh interpreter (started by run.py).

The pass is a closed loop with one client: each request is a call of
utpoly.cli.main(argv) in this process, sent after the previous one has
returned and been checked.  Only the call itself is timed; two
yardstick samples just before it and two just after tell how fast the
machine ran at the time (see run.py).  A request fails on a wrong exit
code, a failed independent check, or a stdout that differs from the
golden corpus (default seed only).

Usage: python bench/worker.py '<json config>'; the config names the
workload, seed, seconds, an optional fixed number of rounds, whether to
trace, and whether to compare against the golden corpus.  The result is
one JSON document on stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import utpoly.cli

from tracer import Tracer
from workloads import WORKLOADS
from yardstick import yardstick

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.jsonl")
MIN_REQUESTS = 100        # p90 needs ten samples beyond it
MAX_WALL_S = 70.0         # stop adding rounds past this, whatever the count
# Also stop after this many rounds, before the smallest classes of
# distinct polynomials run out (about 190 multiples of one commutator
# over F_97 in `witness`, about 200 oracle-enum polynomials over F_2).
# A 20 s pass, even of an infinitely fast program, ends near 55 rounds,
# where checking and generating the requests alone fill the time.
MAX_ROUNDS = 90
# Peak RSS is read after this many rounds, a fixed amount of work, so a
# faster program that fits more rounds into the run does not read larger.
# Any pass reaches it: MIN_REQUESTS takes at least three rounds.
RSS_ROUNDS = 3


def call_cli(argv: list) -> tuple:
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = utpoly.cli.main(list(argv))
        except SystemExit as exc:          # argparse usage errors
            code = exc.code
        dt = perf_counter() - t0
    return code, out.getvalue(), dt


def request_key(argv: list, inputs_sha256: str) -> str:
    """Identifies a request by its argv and the files it reads, so that a
    request stream that deviates (a failed solve skips its replay) is
    still matched against the corpus request by request."""
    return sha256(json.dumps([argv, inputs_sha256]))


def inputs_digest(req) -> str:
    return sha256(json.dumps(sorted(req.files.items())))


def load_golden(workload: str) -> dict:
    """{request key: (exit code, stdout digest)} of the workload's golden
    requests, read line by line so the corpus adds little to peak RSS."""
    out = {}
    with open(GOLDEN) as fh:
        for line in fh:
            entry = json.loads(line)
            if entry.get("workload") == workload:
                key = request_key(entry["argv"], entry["inputs_sha256"])
                out[key] = (entry["exit"], entry["stdout_sha256"])
    return out


def judge(req, code, stdout, golden_entry) -> str | None:
    if golden_entry is not None and golden_entry != (code, sha256(stdout)):
        return "stdout or exit code differs from the golden corpus"
    if code != req.expect_exit:
        return f"exit code {code}, expected {req.expect_exit}"
    try:
        return req.check(stdout)
    except Exception:
        return "check raised: " + traceback.format_exc(limit=2)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def attempts_of(command: str, code: int, stdout: str):
    if command in ("solve", "hit") and code == 0:
        return json.loads(stdout)["diagnostics"]["attempts"]
    return None


def run_pass(cfg: dict) -> dict:
    workload = WORKLOADS[cfg["workload"]](cfg["seed"])
    golden = load_golden(cfg["workload"]) if cfg["golden"] else {}
    tracer = Tracer() if cfg["trace"] else None
    rounds = cfg.get("rounds")
    records, failures = [], []
    golden_checked = 0
    peak_rss_kb = None
    start = perf_counter()
    if tracer:
        tracer.install()
    try:
        for k, round_ in enumerate(workload.rounds()):
            stdout = None
            while True:
                try:
                    req = round_.send(stdout)
                except StopIteration:
                    break
                for path, text in req.files.items():
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    with open(path, "w") as fh:
                        fh.write(text)
                idx = len(records)
                if tracer:
                    tracer.begin_request(idx, req.command)
                sticks = [yardstick(), yardstick()]
                reason = None
                try:
                    code, stdout, dt = call_cli(req.argv)
                except Exception:       # a crash fails the request, not the run
                    code, stdout, dt = None, "", 0.0
                    reason = "uncaught: " + traceback.format_exc(limit=3)
                sticks += [yardstick(), yardstick()]
                inputs = inputs_digest(req)
                if reason is None:
                    entry = golden.get(request_key(req.argv, inputs))
                    golden_checked += entry is not None
                    reason = judge(req, code, stdout, entry)
                if reason is not None:
                    failures.append({"index": idx, "argv": req.argv, "reason": reason})
                records.append({
                    "command": req.command, "round": k, "seconds": dt,
                    "yardstick_s": statistics.median(sticks), "ok": reason is None,
                    "exit": code, "sha256": sha256(stdout), "argv": req.argv,
                    "inputs_sha256": inputs,
                    "attempts": attempts_of(req.command, code, stdout) if reason is None else None,
                })
            if k + 1 == RSS_ROUNDS:
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            elapsed = perf_counter() - start
            if rounds is not None:
                if k + 1 >= rounds:
                    break
            elif (elapsed >= cfg["seconds"] and len(records) >= MIN_REQUESTS) \
                    or elapsed >= MAX_WALL_S or k + 1 >= MAX_ROUNDS:
                break
    finally:
        if tracer:
            tracer.uninstall()
    result = {
        "records": records,
        "failures": failures,
        "golden_checked": golden_checked,
        "yardstick_s": statistics.median(r["yardstick_s"] for r in records),
        "peak_rss_kb": peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "wall_s": perf_counter() - start,
    }
    if tracer:
        result["trace"] = trace_summary(tracer, workload.dir)
    return result


def trace_summary(tracer: Tracer, out_dir: str) -> dict:
    stats = {name: {"calls": s.calls, "self_s": s.self_s, "incl_s": s.incl_s,
                    "errors": s.errors, **s.extra}
             for name, s in tracer.stats.items()}
    info = tracer.originals["analysis.coeff_poly"].cache_info()
    stats.setdefault("analysis.coeff_poly", {}).update(hits=info.hits, misses=info.misses)
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, "spans.jsonl"))
    return {"stats": stats, "spans": len(tracer.spans), "spans_dropped": tracer.dropped}


def main(argv: list) -> int:
    cfg = json.loads(argv[0])
    result = run_pass(cfg)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
