"""benchmarks/call_count.py: the host-cost gate.

``BENCH_perf.json`` pins, for four reduced cases, the calls ``repro``'s
own code makes and the calendar records the kernel dispatches.  Each
case runs in a fresh interpreter (so no other test's stacks are torn
down inside the profile) and must match both numbers exactly: a drop
nobody re-records would leave slack for a later regression.  One
baseline serves every CPython from 3.10 to 3.13 and every hash seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "benchmarks", "call_count.py")

with open(os.path.join(ROOT, "BENCH_perf.json")) as _handle:
    BASELINE = json.load(_handle)["calls"]


def _check(case, hash_seed):
    committed = BASELINE[case]
    argv = [sys.executable, SCRIPT, "--workload", case]
    for key, value in sorted(committed["sizes"].items()):
        argv += ["--size", "%s=%d" % (key, value)]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # The header, the busiest call sites, then the JSON summary.
    assert lines[0].startswith("%s: " % case)
    assert len(lines) == 2 + 20 + 1
    measured = json.loads(lines[-1])
    assert measured["calls_per_record"] == round(
        measured["calls"] / measured["records"], 4)
    got = (measured["calls"], measured["records"])
    want = (committed["calls"], committed["records"])
    assert got == want, (
        "%s: committed %d calls / %d records, measured %d calls / %d "
        "records (PYTHONHASHSEED=%d); if the change is meant, re-record "
        "with: python benchmarks/call_count.py --record"
        % ((case,) + want + got + (hash_seed,)))


@pytest.mark.parametrize("case", sorted(BASELINE))
def test_call_count_equals_the_committed_baseline(case):
    _check(case, hash_seed=0)


def test_call_count_is_the_same_in_two_fresh_interpreters():
    # The parametrized run of this case used hash seed 0.
    _check("oltp-nfsv3", hash_seed=1)
