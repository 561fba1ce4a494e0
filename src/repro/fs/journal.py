"""A jbd-style journal (ext3 ordered-mode, simplified).

Meta-data updates join the *running transaction*.  Every
``journal_commit_interval`` seconds (the paper's 5 s) — or on fsync — the
transaction commits:

1. (ordered mode) data blocks dirtied under the transaction are flushed
   first, so committed meta-data never references unwritten data;
2. a descriptor block, the transaction's meta-data block images, and a
   commit block are written *sequentially* into the journal area, coalesced
   into writes of at most ``journal_segment_bytes``;
3. the in-place meta-data blocks stay dirty in the buffer cache and are
   checkpointed later by the normal flusher.

Step 2 is the paper's **update aggregation**: however many times a block
was modified during the interval, it is journaled once — Figure 3's
amortization curve is this mechanism.
"""

from __future__ import annotations

from typing import Generator, Optional, Set

from ..cache.block_cache import BlockCache
from ..core.params import Ext3Params
from ..sim import Simulator
from .layout import DiskLayout

__all__ = ["Journal"]


class Journal:
    """The running transaction plus the commit machinery."""

    def __init__(
        self,
        sim: Simulator,
        cache: BlockCache,
        layout: DiskLayout,
        params: Optional[Ext3Params] = None,
        name: str = "journal",
        track: str = "server",
    ):
        self.sim = sim
        self.cache = cache
        self.layout = layout
        self.track = track
        self.params = params if params is not None else Ext3Params()
        self.name = name
        self._metadata: Set[int] = set()
        self._ordered_data: Set[int] = set()
        self._head = 0  # journal-area write offset (wraps)
        self._stopped = False
        self._committing = False
        self.commits = 0
        self.blocks_journaled = 0
        # Blocks whose durable copy lives in the journal; written in place
        # only when journal space runs low (a checkpoint) or on unmount.
        self._checkpoint_pending: Set[int] = set()
        self.checkpoints = 0
        self._timer = sim.spawn(self._commit_loop(), name=name + ".commit")

    # -- transaction membership -----------------------------------------------------

    def add_metadata(self, block: int) -> None:
        """Join ``block`` to the running transaction (idempotent)."""
        self._metadata.add(block)

    def add_ordered_data(self, block: int) -> None:
        """Data block that must reach disk before the next commit."""
        self._ordered_data.add(block)

    def forget_data(self, blocks) -> None:
        """Drop freed blocks from all pending sets (file/directory deleted).

        A freed block needs neither ordered flushing, journaling, nor
        checkpointing — its contents are dead.
        """
        self._ordered_data.difference_update(blocks)
        self._metadata.difference_update(blocks)
        self._checkpoint_pending.difference_update(blocks)

    @property
    def pending_metadata(self) -> int:
        return len(self._metadata)

    # -- committing --------------------------------------------------------------------

    def commit(self) -> Generator:
        """Coroutine: commit the running transaction (no-op when empty)."""
        if self._committing:
            # A racing fsync piggybacks on the in-flight commit; simplest
            # faithful behavior is to wait out one commit interval's worth
            # of progress by re-checking after the flush completes.
            return None
        if not self._metadata and not self._ordered_data:
            return None
        span = None
        tracer = self.sim.tracer
        if tracer is not None:
            span = tracer.begin_span(
                "journal.commit", cat="journal", track=self.track,
                metadata=len(self._metadata), ordered=len(self._ordered_data),
            )
        self._committing = True
        try:
            metadata, self._metadata = sorted(self._metadata), set()
            ordered, self._ordered_data = self._ordered_data, set()
            if ordered:
                yield from self.cache.flush(ordered)
            if metadata:
                # Descriptor + block images in one sequential write, then
                # the commit record as a separate barrier write (ext3's
                # ordering guarantee: the commit record must not be
                # reordered before the blocks it commits).
                yield from self._write_journal(len(metadata) + 1)
                yield from self._write_journal(1)
                self.blocks_journaled += len(metadata)
                # The journal now holds the durable copies: the in-place
                # buffers stop being the flusher's problem and await a
                # checkpoint instead.
                self.cache.mark_clean(metadata)
                self._checkpoint_pending.update(metadata)
            self.commits += 1
        finally:
            self._committing = False
            if span is not None:
                tracer.end_span(span)
        if len(self._checkpoint_pending) * 3 > self.layout.journal_blocks:
            yield from self.checkpoint()
        return None

    def checkpoint(self) -> Generator:
        """Coroutine: write journaled blocks in place, reclaiming journal space."""
        blocks = sorted(self._checkpoint_pending)
        self._checkpoint_pending.clear()
        if not blocks:
            return None
        tracer = self.sim.tracer
        if tracer is not None:
            result = yield from tracer.wrap(
                "journal.checkpoint", self._checkpoint_runs(blocks),
                cat="journal", track=self.track, blocks=len(blocks),
            )
            return result
        yield from self._checkpoint_runs(blocks)
        return None

    def _checkpoint_runs(self, blocks) -> Generator:
        self.checkpoints += 1
        segment = max(1, self.params.journal_segment_bytes // self.params.block_size)
        run_start: int = blocks[0]
        run_len = 1
        for block in blocks[1:]:
            if block == run_start + run_len and run_len < segment:
                run_len += 1
            else:
                yield from self.cache.write_through(run_start, run_len)
                run_start, run_len = block, 1
        yield from self.cache.write_through(run_start, run_len)
        return None

    def _write_journal(self, nblocks: int) -> Generator:
        """Sequential journal-area writes, segmented by the coalescing cap."""
        segment_blocks = max(
            1, self.params.journal_segment_bytes // self.params.block_size
        )
        remaining = nblocks
        while remaining > 0:
            chunk = min(remaining, segment_blocks)
            start = self.layout.journal_block(self._head)
            # Clip at the wrap point so each write is physically contiguous.
            to_region_end = self.layout.journal_blocks - (self._head % self.layout.journal_blocks)
            chunk = min(chunk, to_region_end)
            yield from self.cache.write_through(start, chunk)
            self._head += chunk
            remaining -= chunk
        return None

    def _commit_loop(self) -> Generator:
        interval = self.params.journal_commit_interval
        while not self._stopped:
            yield self.sim.timeout(interval)
            if self._stopped:
                return
            yield from self.commit()

    def stop(self) -> None:
        """Stop the background timer (used by unmount)."""
        self._stopped = True
