"""Record the golden CLI corpus, bench/golden.jsonl: for the first rounds
of every workload at the default seed, one line per request with its
argv, the sha256 of the files it reads, its exit code and the sha256 of
its stdout.

    python3 bench/record_golden.py

Run it only on a commit whose outputs are known to be right: the
benchmark fails every later request whose exit code or stdout differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import BENCH_DIR, ROOT, _env
from workloads import DEFAULT_SEED

# about the rounds of one 20 s run on a 2-vCPU machine; rounds past these
# get the independent checks only
ROUNDS = {"symbolic": 20, "witness": 12, "dual-eval": 24}


def main() -> int:
    lines = [{"seed": DEFAULT_SEED, "rounds": ROUNDS}]
    for name, rounds in ROUNDS.items():
        cfg = {"workload": name, "seed": DEFAULT_SEED, "seconds": 0,
               "rounds": rounds, "trace": False, "golden": False}
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"),
                               json.dumps(cfg)], env=_env(), cwd=ROOT, check=True,
                              capture_output=True, text=True)
        res = json.loads(proc.stdout.splitlines()[-1])
        if res["failures"]:
            sys.stderr.write(f"{name}: {len(res['failures'])} requests failed their "
                             f"checks; not recording\n{res['failures'][0]}\n")
            return 1
        lines += [{"workload": name, "argv": r["argv"], "inputs_sha256": r["inputs_sha256"],
                   "exit": r["exit"], "stdout_sha256": r["sha256"]}
                  for r in res["records"]]
        print(f"{name}: {len(res['records'])} requests")
    with open(os.path.join(BENCH_DIR, "golden.jsonl"), "w") as fh:
        fh.writelines(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
                      for line in lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
