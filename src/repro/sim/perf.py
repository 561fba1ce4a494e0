"""Kernel micro-benchmarks: tight synthetic loads on the hot paths.

Four storms exercise the costs the kernel optimization targets —
calendar churn (:func:`event_storm`), process spawn/teardown
(:func:`spawn_storm`), contended resource hand-off
(:func:`resource_storm`), and a deep calendar of RPC retransmission
timers that outlive their replies (:func:`rpc_storm`).  Each returns the
number of operations it ran, so a harness can report a rate.

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

__all__ = ["event_storm", "spawn_storm", "resource_storm", "rpc_storm",
           "MICROBENCHES", "time_callable"]


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


def rpc_storm(callers: int = 4, calls: int = 2_500) -> int:
    """``callers`` RPC clients whose retransmit timers outlive the replies.

    Each call arms a 1.1 s lane timer, as ``RpcPeer`` does, and waits on
    ``any_of([reply, timer])`` for a reply 1 ms later; each caller then
    thinks for 3 ms.  About 1,100 stale timers stay pending, the depth of
    the calendar during an NFS run.
    """
    sim = Simulator()

    def caller():
        for _ in range(calls):
            reply = sim.event()
            timer = sim.lane_timeout(1.1)
            sim._schedule_call1(reply.trigger, None, 0.001)
            yield sim.any_of([reply, timer])
            yield sim.hold(0.003)

    for index in range(callers):
        sim.spawn(caller(), name="caller%d" % index)
    sim.run()
    return callers * calls


# name -> (callable, kwargs): the suite perf_smoke times.
MICROBENCHES: Dict[str, Tuple[Callable[..., int], Dict[str, Any]]] = {
    "event_storm": (event_storm, {"events": 50_000}),
    "spawn_storm": (spawn_storm, {"processes": 5_000}),
    "resource_storm": (resource_storm, {"workers": 50, "rounds": 200}),
    "rpc_storm": (rpc_storm, {"callers": 4, "calls": 2_500}),
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
