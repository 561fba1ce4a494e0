"""Profiled Python calls per dispatched calendar record, for one workload.

Runs one untraced ``perfbench/cases.run_case`` of a perfbench workload
under :mod:`cProfile` and prints the calls it profiled (Python functions
and the builtins they call), the calendar records the kernel dispatched,
their ratio, and the busiest call sites::

    python benchmarks/call_count.py --workload oltp-nfsv3 --seed 1
    python benchmarks/call_count.py --workload postmark-nfsv3 --size transactions=100

The count is a property of the code, not of the host: a run dispatches
the same records and makes the same calls on any machine, so it measures
the Python work per record without the noise of wall time.  ``--size``
overrides a workload constructor argument (as ``run_case`` accepts) for a
reduced run.  The last line of standard output is the JSON summary
``{"workload", "seed", "calls", "records", "calls_per_record"}``.

Run it from the repository root; it puts ``src/`` and ``perfbench/`` on
the path itself and only imports perfbench, never changes it.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from cases import WORKLOADS, run_case  # noqa: E402

TOP = 20


def _site(key: Tuple[str, int, str]) -> str:
    """``file:line(function)`` with the repository prefix stripped."""
    filename, line, function = key
    prefix = str(ROOT) + "/"
    if filename.startswith(prefix):
        filename = filename[len(prefix):]
    if filename == "~":  # a builtin
        return function
    return "%s:%d(%s)" % (filename, line, function)


def count_calls(workload: str, seed: int,
                **sizes: Any) -> Tuple[Dict[str, Any], List[Tuple[int, str]]]:
    """Profile one run; return its summary and calls per site, busiest first."""
    profile = cProfile.Profile()
    profile.enable()
    out = run_case(workload, seed, **sizes)
    profile.disable()
    stats = pstats.Stats(profile).stats
    sites = sorted(((entry[1], _site(key)) for key, entry in stats.items()),
                   key=lambda item: (-item[0], item[1]))
    calls = sum(count for count, _ in sites)
    records = out["output"]["events"]
    summary = {
        "workload": workload,
        "seed": seed,
        "calls": calls,
        "records": records,
        "calls_per_record": round(calls / records, 4),
    }
    return summary, sites


def _size(text: str) -> Tuple[str, int]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError("expected KEY=INT, got %r" % (text,))
    return key, int(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", type=_size, action="append", default=[],
                        metavar="KEY=INT",
                        help="override a workload size argument "
                             "(e.g. transactions=100); repeatable")
    args = parser.parse_args(argv)
    summary, sites = count_calls(args.workload, args.seed, **dict(args.size))
    print("%s seed %d: %d calls / %d records = %.2f calls per record"
          % (summary["workload"], summary["seed"], summary["calls"],
             summary["records"], summary["calls_per_record"]))
    print("%10s  %s" % ("calls", "busiest call sites"))
    for count, site in sites[:TOP]:
        print("%10d  %s" % (count, site))
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
