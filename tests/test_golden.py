"""Byte identity against the benchmark's golden corpus.

Runs the first rounds of every bench workload at seed 0 through
bench/worker.py and requires each request to match bench/golden.jsonl
(exit code and stdout sha256) and pass its independent check.  Any
refactor that changes a byte of stdout on that traffic fails here.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
sys.path.insert(0, BENCH)

from worker import run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload, passes",
                         [pytest.param(w, 1, id=w) for w in sorted(WORKLOADS)]
                         + [pytest.param(w, 2, id=f"{w}-twice")
                            for w in sorted(WORKLOADS)])
def test_golden_rounds_match(workload, passes, tmp_path, monkeypatch):
    """A second pass runs in the same process, its caches warm from the
    first: a warm cache must not change an answer."""
    # the worker writes its request files under .bench_work/ in the cwd
    monkeypatch.chdir(tmp_path)
    for _ in range(passes):
        result = run_pass({"workload": workload, "seed": 0, "seconds": 0,
                           "rounds": 3, "trace": False, "golden": True})
        assert result["failures"] == []
        assert result["golden_checked"] == len(result["records"]) > 0
