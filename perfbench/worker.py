"""Run one workload once, in a fresh interpreter, and print one JSON line.

Usage (from the repository root)::

    python3 perfbench/worker.py --workload oltp-nfsv3 --seed 1 --trace 0

``run.py`` starts one of these per sample, so every sample pays the
interpreter start-up and imports that ``setup_s`` measures, and its peak
resident memory is that of a process which ran exactly one workload.
A :class:`hostmeter.HostMeter` runs from before the imports to the end
of the run and gives the host speed over the set-up and over the run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hostmeter import HostMeter  # noqa: E402


def observe(workload: str, seed: int, traced: bool) -> Dict[str, Any]:
    """One metered :func:`cases.run_case` and the host speeds around it."""
    entered = time.monotonic()
    meter = HostMeter()
    meter.start()
    meter_started = time.monotonic()
    from cases import run_case

    out = run_case(workload, seed, traced=traced)
    finished = time.monotonic()
    meter.stop()
    out["setup_speed"] = meter.speed(meter_started, out["ready"])
    out["run_speed"] = meter.speed(out["started"], finished)
    out["meter_setup_s"] = meter_started - entered
    # ru_maxrss is in KiB on Linux.
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out = observe(args.workload, args.seed, bool(args.trace))
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
