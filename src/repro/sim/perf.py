"""Kernel micro-benchmarks: tight synthetic loads on the hot paths.

Three storms exercise the three costs the kernel optimization targets —
calendar churn (:func:`event_storm`), process spawn/teardown
(:func:`spawn_storm`), and contended resource hand-off
(:func:`resource_storm`).  Each returns the number of calendar records it
dispatched, so a harness can report events/second.

They are deliberately *simulated-time* workloads measured in *wall-clock*
time: the simulation outcome is deterministic (same final ``sim.now``,
same event count, forever), so any wall-clock movement is pure
interpreter/kernel overhead.  ``benchmarks/perf_smoke.py`` times them:
it is the CI wall-clock gate, which times the storms plus the traced
quick suite and fails on a big regression against the committed
``BENCH_perf.json``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Tuple

from .kernel import Simulator
from .resources import Resource

__all__ = ["event_storm", "spawn_storm", "resource_storm", "MICROBENCHES",
           "time_callable"]


def event_storm(events: int = 50_000) -> int:
    """One process sleeping ``events`` times: pure calendar churn."""
    sim = Simulator()

    def sleeper():
        for _ in range(events):
            yield sim.timeout(0.001)

    sim.run_process(sleeper(), name="sleeper")
    return events


def spawn_storm(processes: int = 5_000) -> int:
    """Spawn short-lived child processes and join each one."""
    sim = Simulator()

    def child():
        yield sim.timeout(0.001)
        return None

    def parent():
        for _ in range(processes):
            yield sim.spawn(child())

    sim.run_process(parent(), name="parent")
    return processes


def resource_storm(workers: int = 50, rounds: int = 200) -> int:
    """``workers`` processes fighting over a capacity-2 resource."""
    sim = Simulator()
    resource = Resource(sim, capacity=2, name="disk")

    def worker():
        for _ in range(rounds):
            yield from resource.use(0.001)

    for index in range(workers):
        sim.spawn(worker(), name="w%d" % index)
    sim.run()
    return workers * rounds


# name -> (callable, kwargs): the suite perf_smoke times.
MICROBENCHES: Dict[str, Tuple[Callable[..., int], Dict[str, Any]]] = {
    "event_storm": (event_storm, {"events": 50_000}),
    "spawn_storm": (spawn_storm, {"processes": 5_000}),
    "resource_storm": (resource_storm, {"workers": 50, "rounds": 200}),
}


def time_callable(fn: Callable[..., Any], kwargs: Dict[str, Any],
                  repeat: int = 3) -> float:
    """Best-of-``repeat`` wall-clock seconds for one ``fn(**kwargs)`` call.

    Best-of (not mean) because scheduling noise only ever adds time; the
    minimum is the closest observable to the code's intrinsic cost.
    """
    best = float("inf")
    for _ in range(repeat):
        # Wall-clock on purpose: this harness measures *host* runtime of
        # the kernel, not simulated time.
        start = time.perf_counter()  # simlint: disable=D101 -- perf harness measures host runtime by design
        fn(**kwargs)
        best = min(best, time.perf_counter() - start)  # simlint: disable=D101 -- perf harness measures host runtime by design
    return best
