"""Single-spindle disk model.

Service time for a request decomposes into the classic terms:

* per-request overhead (command processing, controller latency);
* a seek whose cost grows with the square root of the fraction of the
  LBA space crossed (the standard seek-curve approximation) — requests
  adjacent to the previous one pay nothing;
* rotational latency for non-sequential requests;
* media transfer at the streaming bandwidth.

The constants in :class:`~repro.core.params.DiskParams` are calibrated to
the paper's effective testbed behavior (caching ServeRAID controller,
benchmark files short-stroked on 18 GB drives); see EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from typing import Generator

from ..core.params import DiskParams
from ..sim import Resource, Simulator
from .blockdev import BlockDevice

__all__ = ["Disk"]


class Disk(BlockDevice):
    """One spindle: serial service through a FIFO queue."""

    def __init__(
        self,
        sim: Simulator,
        params: DiskParams = None,
        nblocks: int = None,
        name: str = "disk",
    ):
        self.params = params if params is not None else DiskParams()
        super().__init__(
            nblocks if nblocks is not None else self.params.capacity_blocks,
            name=name,
        )
        self.sim = sim
        self.queue = Resource(sim, capacity=1, name=name + ".queue")
        self._head = 0  # block number just past the last access
        self.busy_time = 0.0
        # Service-time multiplier (repro.faults slow-disk windows); 1.0
        # leaves the healthy timing untouched.
        self.slowdown = 1.0

    # -- timing ----------------------------------------------------------------

    def service_time(self, start: int, count: int, is_write: bool = False) -> float:
        """Service time for the request, given the current head position."""
        p = self.params
        if is_write and p.write_back_cache:
            # Absorbed by the controller's battery-backed cache.
            return p.write_overhead + (count * self.block_size) / p.cache_bandwidth
        time = p.per_request_overhead
        if start != self._head:
            distance = abs(start - self._head) / float(self.nblocks)
            seek = p.short_seek + (p.full_seek - p.short_seek) * math.sqrt(distance)
            time += seek + p.rotational_latency
        time += (count * self.block_size) / p.sequential_bandwidth
        return time

    def _access(self, start: int, count: int, is_write: bool = False) -> Generator:
        self.check_range(start, count)
        span = None
        tracer = self.sim.tracer
        if tracer is not None:
            # Begun before queueing so the span length includes queue wait.
            span = tracer.begin_span(
                "disk." + ("write" if is_write else "read"),
                cat="disk", track="server", dev=self.name,
                start=start, count=count, qdepth=self.queue.queue_length,
            )
        try:
            yield from self.queue.acquire()
            try:
                service = self.service_time(start, count, is_write)
                if self.slowdown != 1.0:
                    service *= self.slowdown
                if not (is_write and self.params.write_back_cache):
                    self._head = start + count
                self.busy_time += service
                yield self.sim.hold(service)
            finally:
                self.queue.release()
        finally:
            if span is not None:
                tracer.end_span(span)
        return None

    # -- BlockDevice interface ---------------------------------------------------

    def read(self, start: int, count: int = 1) -> Generator:
        """Coroutine: service a read of ``count`` blocks at ``start``."""
        yield from self._access(start, count)
        self.stats.note_read(count)
        return None

    def write(self, start: int, count: int = 1) -> Generator:
        """Coroutine: service a write of ``count`` blocks at ``start``."""
        yield from self._access(start, count, is_write=True)
        self.stats.note_write(count)
        return None
