"""benchmarks/call_count.py: profiled calls per dispatched record.

The count is the yardstick of the Python work each calendar record
costs, so it must be a property of the code alone: the same run in two
fresh interpreters, with different hash seeds, makes the same calls.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# oltp-nfsv3 at a reduced size: a fraction of a second under cProfile.
_REDUCED = ["--size", "transactions=20", "--size", "table_mb=1",
            "--size", "ntables=2"]


def _count(hash_seed):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "call_count.py"),
         "--workload", "oltp-nfsv3", "--seed", "1"] + _REDUCED,
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # The header, the busiest call sites, then the JSON summary.
    assert lines[0].startswith("oltp-nfsv3 seed 1: ")
    assert len(lines) == 2 + 20 + 1
    return json.loads(lines[-1])


def test_call_count_is_the_same_in_two_fresh_interpreters():
    first, second = _count(0), _count(1)
    assert first == second
    assert first["workload"] == "oltp-nfsv3" and first["seed"] == 1
    assert first["calls"] > first["records"] > 0
    assert first["calls_per_record"] == round(
        first["calls"] / first["records"], 4)
