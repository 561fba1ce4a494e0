"""Write-back buffer cache over a block device.

This is the Linux buffer/page cache as the paper's analysis needs it:

* whole-block granularity — a read miss pulls in the entire 4 KB block, so
  neighbouring meta-data (a block of 32 inodes, a directory block) rides
  along for free: the paper's "aggressive meta-data caching";
* write-back — writes dirty the cached block and return immediately;
* **flush coalescing** — when dirty blocks are written back (periodic
  flusher, fsync, journal checkpoint, eviction pressure), they are sorted
  by block number and merged into contiguous runs up to a size cap.  This
  is the elevator behavior that produced the paper's ~128 KB mean iSCSI
  write request (Section 4.5), i.e. "update aggregation";
* dirty throttling — writers stall once the dirty fraction passes
  ``dirty_ratio`` until the flusher catches up, bounding data loss and
  memory use (and shaping the random-write times of Table 4).

The buffers live in an ``OrderedDict`` kept in LRU order (a hit moves its
block to the end, an insertion past capacity evicts the first), touched
directly rather than through :class:`~repro.cache.policies.LruDict`: every
block read and write of both stacks goes through here.  ``dirty_limit``
is an attribute set at construction, as the capacity and ratio it comes
from are.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Generator, Iterable, List, Optional

from ..core.params import CacheParams
from ..sim import Event, Simulator
from ..storage.blockdev import BlockDevice
from .policies import CacheStats

__all__ = ["BlockCache"]


class _Buffer:
    """State of one cached block."""

    __slots__ = ("dirty", "dirtied_at")

    def __init__(self):
        self.dirty = False
        self.dirtied_at = 0.0


class BlockCache:
    """An LRU write-back cache of fixed-size blocks over ``device``."""

    def __init__(
        self,
        sim: Simulator,
        device: BlockDevice,
        capacity_bytes: int,
        params: Optional[CacheParams] = None,
        max_coalesced_bytes: int = 128 * 1024,
        start_flusher: bool = True,
        name: str = "bcache",
        track: str = "server",
    ):
        self.sim = sim
        self.device = device
        self.track = track
        self.params = params if params is not None else CacheParams()
        self.block_size = device.block_size
        self.capacity_blocks = max(1, capacity_bytes // self.block_size)
        self.max_coalesced_blocks = max(1, max_coalesced_bytes // self.block_size)
        # Writers throttle at this many dirty blocks.
        self.dirty_limit = max(1, int(self.capacity_blocks * self.params.dirty_ratio))
        self.name = name
        self.stats = CacheStats()
        # Block -> buffer, least recently used first.
        self._buffers: "OrderedDict[int, _Buffer]" = OrderedDict()
        self._dirty: Dict[int, _Buffer] = {}
        self._inflight: Dict[int, Event] = {}
        self._throttle_waiters: List[Event] = []
        self._flusher: Optional[object] = None
        self._stopped = False
        if start_flusher:
            self._flusher = sim.spawn(self._flusher_loop(), name=name + ".flusher")

    # -- inspection ---------------------------------------------------------------

    @property
    def dirty_blocks(self) -> int:
        return len(self._dirty)

    def contains(self, block: int) -> bool:
        """True if ``block`` is resident in the cache."""
        return block in self._buffers

    def is_dirty(self, block: int) -> bool:
        """True if ``block`` is resident and dirty."""
        buf = self._buffers.get(block)
        return bool(buf and buf.dirty)

    # -- reads ----------------------------------------------------------------------
    # read/read_range/write/write_range are eager calls (see
    # repro.sim.resources): they do their bookkeeping when called and
    # return what the caller must ``yield from`` -- an empty tuple on a
    # hit or below the dirty limit, otherwise a generator that waits.

    def read(self, block: int) -> Iterable[Any]:
        """Ensure ``block`` is cached (one device read on miss).

        An eager call: ``yield from`` the result.  An untraced hit is
        counted here; anything else is :meth:`read_range` of one block.
        """
        buffers = self._buffers
        if block in buffers and self.sim.tracer is None:
            buffers.move_to_end(block)
            self.stats.hits += 1
            return ()
        return self.read_range(block, 1)

    def read_range(self, start: int, count: int) -> Iterable[Any]:
        """Ensure blocks [start, start+count) are cached.

        Missing blocks are fetched in contiguous device reads (adjacent
        misses merge into one request, as the block layer would).  An
        eager call: the lookups happen now; ``yield from`` the result to
        wait for the fetches.
        """
        missing: List[int] = []
        awaited: List[Event] = []
        buffers = self._buffers
        for block in range(start, start + count):
            if block in buffers:
                buffers.move_to_end(block)
                self.stats.hits += 1
            elif block in self._inflight:
                # Another reader (e.g. a prefetcher) already issued the I/O.
                self.stats.hits += 1
                awaited.append(self._inflight[block])
            else:
                self.stats.misses += 1
                missing.append(block)
                self._inflight[block] = self.sim.event()
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                "bcache." + ("hit" if not missing else "miss"),
                cat="cache", track=self.track, start=start,
                hits=count - len(missing), misses=len(missing),
            )
        if not missing and not awaited:
            return ()
        return self._fill(missing, awaited)

    def _fill(self, missing: List[int], awaited: List[Event]) -> Generator:
        """Fetch ``missing`` blocks, then wait for ``awaited`` fetches."""
        for run_start, run_len in _runs(missing):
            yield from self.device.read(run_start, run_len)
            for block in range(run_start, run_start + run_len):
                self._install(block, dirty=False)
                gate = self._inflight.pop(block, None)
                if gate is not None:
                    gate.trigger()
        for gate in awaited:
            if not gate.triggered:
                yield gate
        return None

    # -- writes ---------------------------------------------------------------------

    def write(self, block: int) -> Iterable[Any]:
        """Dirty ``block`` in cache (write-back; may throttle).

        An eager call: ``yield from`` the result.  The one-block case of
        :meth:`write_range`.
        """
        if len(self._dirty) >= self.dirty_limit:
            return self._throttled_write(block, 1)
        self._dirty_range(block, 1)
        return ()

    def write_range(self, start: int, count: int) -> Iterable[Any]:
        """Dirty blocks [start, start+count) in cache.

        An eager call: below the dirty limit the blocks are dirtied now;
        at the limit the result throttles first.  ``yield from`` it.
        """
        if len(self._dirty) >= self.dirty_limit:
            return self._throttled_write(start, count)
        self._dirty_range(start, count)
        return ()

    def _throttled_write(self, start: int, count: int) -> Generator:
        while len(self._dirty) >= self.dirty_limit:
            gate = self.sim.event()
            self._throttle_waiters.append(gate)
            self.sim.spawn(self.flush(), name=self.name + ".throttle-flush")
            yield gate
        self._dirty_range(start, count)

    def _dirty_range(self, start: int, count: int) -> None:
        buffers = self._buffers
        for block in range(start, start + count):
            buf = buffers.get(block)
            if buf is None:
                self._install(block, dirty=True)
                continue
            buffers.move_to_end(block)
            if not buf.dirty:
                buf.dirty = True
                buf.dirtied_at = self.sim.now
                self._dirty[block] = buf

    def write_through(self, start: int, count: int) -> Generator:
        """Coroutine: write blocks straight to the device (journal path).

        The blocks are also installed clean in the cache.
        """
        yield from self.device.write(start, count)
        for block in range(start, start + count):
            buf = self._buffers.get(block)
            if buf is not None and buf.dirty:
                self._dirty.pop(block, None)
                buf.dirty = False
            elif buf is None:
                self._install(block, dirty=False)
        return None

    # -- flushing -------------------------------------------------------------------

    def flush(self, blocks: Optional[Iterable[int]] = None) -> Generator:
        """Coroutine: write back dirty blocks (all, or just ``blocks``).

        Dirty blocks are sorted and coalesced into contiguous device writes
        of at most ``max_coalesced_blocks`` — update aggregation.
        """
        if blocks is None:
            todo = sorted(self._dirty)
        else:
            todo = sorted(b for b in blocks if b in self._dirty)
        for block in todo:
            # A concurrent flush may have cleaned it already.
            buf = self._buffers.get(block)
            if buf is not None and buf.dirty:
                buf.dirty = False
            self._dirty.pop(block, None)
        # All write-back requests enter the device queue at once — the
        # block layer keeps the queue deep; the device serializes.
        span = None
        tracer = self.sim.tracer
        if tracer is not None and todo:
            span = tracer.begin_span(
                "cache.flush", cat="cache", track=self.track,
                blocks=len(todo),
            )
        try:
            jobs = []
            for run_start, run_len in _runs(todo, self.max_coalesced_blocks):
                job = self.sim.spawn(
                    self.device.write(run_start, run_len),
                    name=self.name + ".wb",
                )
                if span is not None:
                    job.trace_parent = span.id
                jobs.append(job)
            if jobs:
                yield self.sim.all_of(jobs)
        finally:
            if span is not None:
                tracer.end_span(span)
        self._wake_throttled()
        return None

    def sync(self) -> Generator:
        """Coroutine: flush everything dirty."""
        yield from self.flush()
        return None

    def _flusher_loop(self) -> Generator:
        interval = self.params.dirty_writeback_interval
        while not self._stopped:
            yield self.sim.timeout(interval)
            if self._stopped:
                return
            if self._dirty:
                yield from self.flush()

    def stop(self) -> None:
        """Stop the background flusher (used by unmount)."""
        self._stopped = True

    # -- invalidation -----------------------------------------------------------------

    def mark_clean(self, blocks: Iterable[int]) -> None:
        """Clear dirty state without device writes.

        Used by the journal after a commit: the journal copy is now the
        durable one, so the in-place blocks no longer need the flusher
        (they await a *checkpoint* instead).
        """
        for block in blocks:
            buf = self._buffers.get(block)
            if buf is not None and buf.dirty:
                buf.dirty = False
            self._dirty.pop(block, None)
        self._wake_throttled()

    def discard(self, blocks: Iterable[int]) -> None:
        """Drop blocks without writing them back (freed/truncated data).

        This is what lets a create-then-delete pair generate *zero* device
        traffic — a key ingredient of iSCSI's PostMark numbers.
        """
        for block in blocks:
            buf = self._buffers.pop(block, None)
            if buf is not None and buf.dirty:
                buf.dirty = False
            self._dirty.pop(block, None)
        self._wake_throttled()

    def invalidate_all(self) -> None:
        """Drop every cached block; dirty data is lost (cold-cache reset)."""
        self._buffers.clear()
        self._dirty.clear()

    # -- internals ----------------------------------------------------------------------

    def _install(self, block: int, dirty: bool) -> None:
        buf = _Buffer()
        buf.dirty = dirty
        buf.dirtied_at = self.sim.now
        buffers = self._buffers
        evicted = None
        if block in buffers:  # filled by a writer while its read was in flight
            buffers[block] = buf
            buffers.move_to_end(block)
        else:
            buffers[block] = buf
            if len(buffers) > self.capacity_blocks:
                evicted = buffers.popitem(last=False)
        if dirty:
            self._dirty[block] = buf
        self.stats.insertions += 1
        if evicted is not None:
            evicted_block, evicted_buf = evicted
            self.stats.evictions += 1
            if evicted_buf.dirty:
                self._dirty.pop(evicted_block, None)
                evicted_buf.dirty = False
                # Eviction of a dirty buffer forces an immediate write-back.
                self.sim.spawn(
                    self.device.write(evicted_block, 1),
                    name=self.name + ".evict",
                )

    def _wake_throttled(self) -> None:
        if len(self._dirty) < self.dirty_limit:
            waiters, self._throttle_waiters = self._throttle_waiters, []
            for gate in waiters:
                gate.trigger()


def _runs(blocks: List[int], max_len: Optional[int] = None):
    """Yield ``(start, length)`` for maximal contiguous runs in sorted input."""
    start = None
    length = 0
    for block in blocks:
        if start is None:
            start, length = block, 1
        elif block == start + length and (max_len is None or length < max_len):
            length += 1
        else:
            yield start, length
            start, length = block, 1
    if start is not None:
        yield start, length
