"""Checks that the host meter follows the host and not the simulator.

Usage (from the repository root)::

    python3 perfbench/meter_check.py --rounds 12

The host meter runs inside the measured process, so a change to the
simulator might move the meter's speed as well as the run's time, most
plausibly through its memory footprint.  Each round runs, back to back
and each in a fresh metered worker, a plain ``oltp-iscsi`` sample, two
slowed ``oltp-iscsi`` samples and a plain sample of each other workload.
The slowdowns go through the kernel's event hook ``Simulator.recorder``,
which observes and never schedules, so simulated outputs stay the same:

* ``cpu`` spins an empty loop of 30 steps per kernel event;
* ``mem`` writes four random places of a 32 MB array per kernel event,
  which grows the working set far beyond the caches.

For every other cell the check prints, as the median and quartiles over
rounds of its ratio to the same round's plain ``oltp-iscsi`` sample,
the meter's speed, the raw wall time and the scaled wall time.  The
meter follows only the host when the speed ratio is 1 within the spread
and the scaled ratio of a slowed cell equals its raw ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
CELLS = (("oltp-iscsi", "plain"), ("oltp-iscsi", "cpu"), ("oltp-iscsi", "mem"),
         ("oltp-nfsv3", "plain"), ("postmark-nfsv3", "plain"))
MEM_WORDS = 1 << 22          # 32 MB of 8-byte integers


class CpuHook:
    def note_event(self, record) -> None:
        for _ in range(30):
            pass


class MemHook:
    def __init__(self):
        self.words = array("q", bytes(8 * MEM_WORDS))
        self.place = 0

    def note_event(self, record) -> None:
        place = self.place = (self.place + 2654435761) % MEM_WORDS
        words = self.words
        for step in (1, 7, 13, 31):
            words[place * step % MEM_WORDS] += 1


def child(workload: str, slowdown: str) -> None:
    """One metered sample with ``slowdown`` hooked into every simulator."""
    import worker
    from repro.sim import Simulator

    if slowdown != "plain":
        hook = CpuHook() if slowdown == "cpu" else MemHook()
        init = Simulator.__init__

        def hooked_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            sim.recorder = hook
        Simulator.__init__ = hooked_init
    out = worker.observe(workload, 1, traced=False)
    print(json.dumps({"wall_s": out["wall_s"], "speed": out["run_speed"],
                      "digest": out["output"]["digest"]}))


def quartiles(values) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return "%.3f [%.3f..%.3f]" % (median, q1, q3)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--child", nargs=2, metavar=("WORKLOAD", "SLOWDOWN"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(*args.child)
        return 0

    env = dict(os.environ, PYTHONHASHSEED="0")
    rounds = []
    for number in range(args.rounds):
        samples = {}
        for workload, slowdown in CELLS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--child", workload, slowdown],
                cwd=str(HERE.parent), stdout=subprocess.PIPE, env=env, check=True)
            samples[workload, slowdown] = json.loads(proc.stdout.decode().splitlines()[-1])
        digests = {samples[cell]["digest"] for cell in CELLS[:3]}
        if len(digests) != 1:
            print("a slowdown changed the simulated outputs", file=sys.stderr)
            return 1
        rounds.append(samples)
        print("round %d: %s" % (number, " ".join(
            "%s/%s %.3fs x%.3f" % (workload, slowdown, sample["wall_s"], sample["speed"])
            for (workload, slowdown), sample in samples.items())), flush=True)

    base = CELLS[0]
    print("ratios to %s/%s, median [q1..q3] over %d rounds" % (base + (len(rounds),)))
    for cell in CELLS[1:]:
        speed = [r[cell]["speed"] / r[base]["speed"] for r in rounds]
        raw = [r[cell]["wall_s"] / r[base]["wall_s"] for r in rounds]
        scaled = [r[cell]["wall_s"] * r[cell]["speed"]
                  / (r[base]["wall_s"] * r[base]["speed"]) for r in rounds]
        print("%-22s speed %s  raw wall %s  scaled wall %s" % (
            "%s/%s" % cell, quartiles(speed), quartiles(raw), quartiles(scaled)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
