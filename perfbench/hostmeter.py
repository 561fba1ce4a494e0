"""A host-speed meter that runs inside the measured process.

Shared hosts change speed by up to a factor of two, in spells from a
fraction of a second to tens of seconds: neighbours contend for cores,
caches and memory bandwidth.  The lost time counts as this process's CPU
time, not as steal or waiting, so neither CPU time nor more samples
remove it.

:class:`HostMeter` measures the speed *during* a run.  A wall-clock
interval timer interrupts the process every :data:`INTERVAL_S` seconds, and
the signal handler times one of two fixed pure-Python loops in turn:

* :func:`compute_loop` runs :data:`COMPUTE_EVENTS` resumptions of
  generator processes off a ``heapq`` calendar, the kernel's own
  pattern, in a few kilobytes;
* :func:`memory_loop` reads a 4 MB array at random places.

Contention slows the simulator less than the first loop and more than
the second. On one host the geometric mean of the two tracked the
simulator's own slow-down almost one for one (log-log slope 0.92,
correlation 0.96 over 75 runs).  The handler touches no simulator
state, so simulated outputs are unchanged.  ``run.py`` multiplies a
run's host times by :meth:`HostMeter.speed`.

Because the loops run in the measured process, a change to the
simulator could move the meter too, most plausibly through its memory
footprint.  ``meter_check.py`` tests this by running plain samples
interleaved with samples slowed through the kernel's event hook, once
by pure computation and once by random writes to a 32 MB array, and
comparing the meter's speed between them.
"""

from __future__ import annotations

import heapq
import math
import random
import signal
import statistics
import time
from array import array
from typing import Dict, Generator, List, Optional, Tuple

__all__ = ["REFERENCE_S", "INTERVAL_S", "COMPUTE_EVENTS", "HostMeter",
           "compute_loop", "memory_loop"]

#: Geometric mean of the two loop times on an idle 2-core Xeon VM
#: (2.0 GHz, Python 3.11).
REFERENCE_S = 0.00045

#: Wall seconds between two ticks of the meter.
INTERVAL_S = 0.02

#: Process resumptions in one :func:`compute_loop`.
COMPUTE_EVENTS = 600

_ARRAY_LEN = 1 << 19          # 4 MB of doubles: beyond L2, within L3
_READS = 3000


def _process(steps: int) -> Generator[int, int, int]:
    total = 0
    for step in range(steps):
        total += (yield step) or 0
    return total


def compute_loop() -> Dict[int, int]:
    """Dispatch :data:`COMPUTE_EVENTS` resumptions of ten processes off a heap."""
    calendar: List[Tuple[float, int, Generator, object]] = []
    seq = 0
    for _ in range(10):
        seq += 1
        heapq.heappush(calendar, (0.0, seq, _process(COMPUTE_EVENTS // 10), None))
    tally: Dict[int, int] = {}
    while calendar:
        when, _, process, value = heapq.heappop(calendar)
        try:
            step = process.send(value)
        except StopIteration:
            continue
        tally[step % 97] = tally.get(step % 97, 0) + 1
        seq += 1
        heapq.heappush(calendar, (when + (step % 7) * 0.001, seq, process, step))
    return tally


def memory_loop(values: array, places: array) -> float:
    """Sum ``values`` at each of ``places``."""
    total = 0.0
    for place in places:
        total += values[place]
    return total


class HostMeter:
    """Times the two loops, alternately, every :data:`INTERVAL_S` wall seconds."""

    def __init__(self):
        rng = random.Random(0)
        self._values = array("d", bytes(8 * _ARRAY_LEN))
        self._places = array("l", (rng.randrange(_ARRAY_LEN) for _ in range(_READS)))
        # (time.monotonic(), loop seconds) per loop
        self.ticks: Tuple[list, list] = ([], [])
        self._turn = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        turn = self._turn
        self._turn ^= 1
        start = time.perf_counter()
        if turn:
            memory_loop(self._values, self._places)
        else:
            compute_loop()
        self.ticks[turn].append((time.monotonic(), time.perf_counter() - start))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def speed(self, begin: float, end: Optional[float] = None) -> float:
        """Host speed relative to the reference over ``[begin, end]``.

        ``begin``/``end`` are ``time.monotonic()`` readings.  Each loop's
        time is the median over its ticks in the interval, so a few ticks
        that a preemption stretched do not move it.  Returns 1.0 unless
        both loops were timed in the interval.
        """
        medians = []
        for ticks in self.ticks:
            times = [loop for when, loop in ticks
                     if when >= begin and (end is None or when <= end)]
            if not times:
                return 1.0
            medians.append(statistics.median(times))
        return REFERENCE_S / math.sqrt(medians[0] * medians[1])
