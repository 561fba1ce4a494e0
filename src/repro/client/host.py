"""Host machines: CPUs with utilization accounting.

The testbed has two: a 1-CPU client and a 2-CPU server (the paper's 1 GHz
PIII client and dual-933 MHz PIII server).  Every protocol layer charges
its processing here, so the vmstat-style utilization figures of Tables 9
and 10 come from the same resource that creates CPU contention.
"""

from __future__ import annotations

from ..sim import Resource, Simulator

__all__ = ["Host"]


class Host:
    """One machine: a named multi-core CPU resource."""

    def __init__(self, sim: Simulator, cpus: int, name: str):
        self.sim = sim
        self.name = name
        self.cpu = Resource(sim, capacity=cpus, name=name + ".cpu")

    def reset_utilization_window(self) -> None:
        """Start a fresh measurement window (a vmstat restart).

        This is the CPU's :meth:`~repro.sim.stats.ResourceStats.reset_window`:
        every statistic of ``cpu.stats`` (busy time, acquisitions, waits,
        the queue integral) restarts at the current instant.
        """
        self.cpu.stats.reset_window()

    def cpu_utilization(self) -> float:
        """Mean CPU utilization over the current window, in [0, 1]."""
        return min(1.0, self.cpu.stats.utilization())
