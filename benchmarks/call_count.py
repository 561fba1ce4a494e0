"""The calls ``repro``'s own code makes per dispatched calendar record.

Runs one case under :mod:`cProfile` and prints the counted calls, the
calendar records the kernel dispatched, their ratio and the busiest
counted call sites; the last line is the JSON summary ``{"workload",
"seed", "calls", "records", "calls_per_record"}``::

    python benchmarks/call_count.py --workload oltp-nfsv3 --seed 1
    python benchmarks/call_count.py --workload postmark-nfsv3 --size transactions=100
    python benchmarks/call_count.py --workload postmark/nfsv3
    python benchmarks/call_count.py --record

A case is a perfbench workload, run untraced through
``perfbench/cases.run_case`` (``--size`` overrides a constructor argument
for a reduced run), or a quick-suite ``repro bench`` case such as
``postmark/nfsv3``, run traced through ``repro.obs.bench.run_case_stack``.

Counted are the calls into functions defined in the ``repro`` package
and the builtin calls made from ``repro`` frames.  Left out is what the
interpreter decides rather than the code, so the count is the same on
any host, hash seed and CPython 3.10-3.13: comprehension and
generator-expression frames (3.12 inlines list, dict and set
comprehensions; 3.13 counts a short-circuited generator expression
differently), calls into stdlib Python functions (which callees are
Python frames differs by version) and perfbench's wrapper frames.

``BENCH_perf.json``'s ``calls`` block pins the count and the records of
four reduced cases at seed 1; ``tests/test_call_count.py`` requires both
exactly, and ``--record`` rewrites the block.  The script puts ``src/``
and ``perfbench/`` on the path itself and never changes perfbench.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import pstats
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "BENCH_perf.json"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import repro  # noqa: E402
from cases import WORKLOADS, kernel_events, run_case  # noqa: E402
from repro.obs.bench import SUITES, run_case_stack  # noqa: E402
from spans import LAYER_MODULES  # noqa: E402

TOP = 20
PACKAGE = str(Path(repro.__file__).resolve().parent)
INLINED = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"))
BENCH_CASES = ["%s/%s" % (workload, kind)
               for workload, kinds in SUITES["quick"] for kind in kinds]


def _in_repro(key: Tuple[str, int, str]) -> bool:
    return key[0].startswith(PACKAGE + "/")


def _site(key: Tuple[str, int, str]) -> str:
    """``repro/file.py:line(function)``, or a builtin's name."""
    filename, line, function = key
    if filename == "~":
        return function
    return "repro%s:%d(%s)" % (filename[len(PACKAGE):], line, function)


def counted_sites(stats: Dict[tuple, tuple]) -> Dict[tuple, int]:
    """Counted calls per pstats site.

    A ``repro`` function counts every call but a comprehension's or a
    generator expression's; a builtin counts the calls made from
    ``repro`` frames, those frames included.
    """
    sites = {}
    for key, (_prim, calls, _tt, _ct, callers) in stats.items():
        if key[0] == "~":
            calls = sum(entry[0] for caller, entry in callers.items()
                        if _in_repro(caller))
        elif not _in_repro(key) or key[2] in INLINED:
            continue
        if calls:
            sites[key] = calls
    return sites


def _run(workload: str, seed: int, sizes: Dict[str, int]) -> int:
    """Run one case; return the calendar records the kernel dispatched."""
    if workload in WORKLOADS:
        return run_case(workload, seed, **sizes)["output"]["events"]
    name, kind = workload.split("/")
    _record, stack = run_case_stack(name, kind)
    return kernel_events(stack)


def count_calls(workload: str, seed: int, **sizes: int
                ) -> Tuple[Dict[str, Any], List[Tuple[int, str]]]:
    """Profile one run; return its summary and counted calls per site."""
    # A stack imports its layers where it builds them; load every layer
    # (and a traced run's tracer and proxy) first, so that no module body
    # runs in the profile, wherever its import sits.
    for modules in LAYER_MODULES.values():
        for module in modules:
            importlib.import_module(module)
    importlib.import_module("repro.obs.proxy")
    # A stack's processes and its simulator form reference cycles, which
    # only the collector frees; with it off, no stack is torn down (no
    # daemon generator closed, each close a counted call) in the profile.
    gc.disable()
    profile = cProfile.Profile()
    profile.enable()
    records = _run(workload, seed, sizes)
    profile.disable()
    gc.enable()
    sites = counted_sites(pstats.Stats(profile).stats)
    ranked = sorted(((calls, _site(key)) for key, calls in sites.items()),
                    key=lambda item: (-item[0], item[1]))
    calls = sum(sites.values())
    summary = {
        "workload": workload,
        "seed": seed if workload in WORKLOADS else None,
        "calls": calls,
        "records": records,
        "calls_per_record": round(calls / records, 4),
    }
    return summary, ranked


def record() -> None:
    """Rerun each case of the baseline's ``calls`` block, each in a fresh
    interpreter (no other run's stacks in its profile); rewrite the block."""
    document = json.loads(BASELINE.read_text())
    for name, case in sorted(document["calls"].items()):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        for key, value in sorted(case["sizes"].items()):
            argv += ["--size", "%s=%d" % (key, value)]
        done = subprocess.run(argv, capture_output=True, text=True, check=True)
        summary = json.loads(done.stdout.splitlines()[-1])
        print("%-16s records %d -> %d, calls %d -> %d"
              % (name, case["records"], summary["records"],
                 case["calls"], summary["calls"]))
        case["records"], case["calls"] = summary["records"], summary["calls"]
    BASELINE.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % BASELINE)


def _size(text: str) -> Tuple[str, int]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError("expected KEY=INT, got %r" % (text,))
    return key, int(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + BENCH_CASES)
    parser.add_argument("--seed", type=int, default=1,
                        help="perfbench workload seed (default 1)")
    parser.add_argument("--size", type=_size, action="append", default=[],
                        metavar="KEY=INT",
                        help="override a perfbench workload size argument "
                             "(e.g. transactions=100); repeatable")
    parser.add_argument("--record", action="store_true",
                        help="rerun every case pinned in BENCH_perf.json, "
                             "each in a fresh interpreter, and rewrite "
                             "its counts")
    args = parser.parse_args(argv)
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("give --workload or --record")
    if args.size and args.workload not in WORKLOADS:
        parser.error("--size applies to perfbench workloads only")
    summary, sites = count_calls(args.workload, args.seed, **dict(args.size))
    print("%s: %d calls / %d records = %.2f calls per record"
          % (summary["workload"], summary["calls"], summary["records"],
             summary["calls_per_record"]))
    print("%10s  %s" % ("calls", "busiest call sites"))
    for count, site in sites[:TOP]:
        print("%10d  %s" % (count, site))
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
