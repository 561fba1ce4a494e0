"""Discrete-event simulation substrate.

Everything in the library runs on this kernel: network links, disks,
caches, filesystems and protocol stacks are all processes and resources
scheduled on one :class:`~repro.sim.kernel.Simulator` clock.
"""

from .kernel import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import Resource, Store
from .stats import LatencyHistogram, ResourceStats

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "LatencyHistogram",
    "Process",
    "Resource",
    "ResourceStats",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]
