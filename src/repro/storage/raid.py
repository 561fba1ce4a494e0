"""RAID-5 array (4 data + 1 parity), mirroring the paper's two arrays.

Layout is left-symmetric RAID-5: logical blocks are striped across the data
disks in ``stripe_unit_blocks`` units, with the parity unit rotating one
disk per stripe row.

Writes distinguish the two canonical paths:

* **full-stripe write** — all data units of a row are written at once;
  parity is computed from the new data and all disks are written in
  parallel (large sequential writes from the journal/flusher take this
  path, which is why iSCSI's coalesced 128 KB writes are cheap);
* **small write** — a read-modify-write: read old data + old parity, write
  new data + new parity (two serialized disk passes on two spindles).

Parity computation charges CPU on the host running the array (the server),
contributing to the server-utilization asymmetries of Table 9.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Optional, Tuple

from ..core.params import DiskParams, RaidParams
from ..sim import Process, Resource, Simulator
from .blockdev import BlockDevice
from .disk import Disk

__all__ = ["Raid5Volume"]


class Raid5Volume(BlockDevice):
    """A RAID-5 volume over ``data_disks + 1`` spindles."""

    def __init__(
        self,
        sim: Simulator,
        raid_params: Optional[RaidParams] = None,
        disk_params: Optional[DiskParams] = None,
        cpu: Optional[Resource] = None,
        parity_cpu_per_byte: float = 0.0,
        io_cpu: float = 0.0,
        name: str = "raid5",
    ):
        self.raid = raid_params if raid_params is not None else RaidParams()
        disk_params = disk_params if disk_params is not None else DiskParams()
        ndisks = self.raid.data_disks + 1
        self.disks: List[Disk] = [
            Disk(sim, disk_params, name="%s.disk%d" % (name, i))
            for i in range(ndisks)
        ]
        data_blocks = self.raid.data_disks * disk_params.capacity_blocks
        super().__init__(data_blocks, name=name)
        self.sim = sim
        self.cpu = cpu
        self.parity_cpu_per_byte = parity_cpu_per_byte
        self.io_cpu = io_cpu
        # Degraded-mode state (repro.faults).  While ``_failed`` names a
        # spindle, reads of its units are reconstructed from the survivors
        # and writes to it are skipped (the parity update covers them).
        self._failed: Optional[int] = None
        self.disk_failures = 0
        self.degraded_reads = 0
        self.degraded_writes = 0
        self.rebuild_writes = 0

    # -- geometry -----------------------------------------------------------------

    def locate(self, block: int) -> Tuple[int, int]:
        """Map a logical block to ``(disk_index, physical_block)``."""
        unit = self.raid.stripe_unit_blocks
        ndata = self.raid.data_disks
        stripe_number = block // unit
        row = stripe_number // ndata
        unit_in_row = stripe_number % ndata
        parity_disk = row % (ndata + 1)
        # Left-symmetric: data units fill the non-parity slots in order.
        disk = (parity_disk + 1 + unit_in_row) % (ndata + 1)
        physical = row * unit + (block % unit)
        return disk, physical

    def parity_disk_for(self, block: int) -> int:
        """The spindle holding parity for the stripe row of ``block``."""
        unit = self.raid.stripe_unit_blocks
        ndata = self.raid.data_disks
        row = (block // unit) // ndata
        return row % (ndata + 1)

    def _split_runs(self, start: int, count: int) -> List[Tuple[int, int, int]]:
        """Split a logical extent into per-disk contiguous runs.

        Returns ``(disk_index, physical_start, run_length)`` tuples.
        """
        runs: List[Tuple[int, int, int]] = []
        unit = self.raid.stripe_unit_blocks
        block = start
        remaining = count
        while remaining > 0:
            disk, physical = self.locate(block)
            in_unit = unit - (block % unit)
            length = min(remaining, in_unit)
            if runs and runs[-1][0] == disk and runs[-1][1] + runs[-1][2] == physical:
                prev_disk, prev_start, prev_len = runs.pop()
                runs.append((prev_disk, prev_start, prev_len + length))
            else:
                runs.append((disk, physical, length))
            block += length
            remaining -= length
        return runs

    def _row_span(self, start: int, count: int) -> bool:
        """True when [start, start+count) covers whole stripe rows only."""
        row_blocks = self.raid.stripe_unit_blocks * self.raid.data_disks
        return start % row_blocks == 0 and count % row_blocks == 0

    # -- I/O -------------------------------------------------------------------------

    def _spawn_io(self, generator: Generator) -> Process:
        """Spawn a per-disk job, carrying span parentage across processes."""
        job = self.sim.spawn(generator)
        tracer = self.sim.tracer
        if tracer is not None:
            job.trace_parent = tracer.current_span_id()
        return job

    def read(self, start: int, count: int = 1) -> Generator:
        """Coroutine: read ``count`` blocks, striped across the spindles."""
        self.check_range(start, count)
        span = None
        tracer = self.sim.tracer
        if tracer is not None:
            span = tracer.begin_span(
                "raid.read", cat="raid", track="server",
                start=start, count=count, degraded=self._failed is not None,
            )
        try:
            if self.cpu is not None and self.io_cpu > 0:
                yield from self.cpu.use(self.io_cpu)
            runs = self._split_runs(start, count)
            jobs = [
                self._read_job(disk, physical, length)
                for disk, physical, length in runs
            ]
            yield self.sim.all_of(jobs)
        finally:
            if span is not None:
                tracer.end_span(span)
        self.stats.note_read(count)
        return None

    def write(self, start: int, count: int = 1) -> Generator:
        """Coroutine: write ``count`` blocks (full-stripe or RMW path)."""
        self.check_range(start, count)
        span = None
        tracer = self.sim.tracer
        if tracer is not None:
            span = tracer.begin_span(
                "raid.write", cat="raid", track="server",
                start=start, count=count,
                full_stripe=self._row_span(start, count),
            )
        try:
            if self.cpu is not None and self.io_cpu > 0:
                yield from self.cpu.use(self.io_cpu)
            yield from self._charge_parity(count)
            if self._row_span(start, count):
                yield from self._full_stripe_write(start, count)
            else:
                yield from self._small_write(start, count)
        finally:
            if span is not None:
                tracer.end_span(span)
        self.stats.note_write(count)
        return None

    def _full_stripe_write(self, start: int, count: int) -> Generator:
        """Write data + freshly computed parity, all spindles in parallel."""
        runs = self._split_runs(start, count)
        jobs = [
            job
            for disk, physical, length in runs
            if (job := self._write_job(disk, physical, length)) is not None
        ]
        # One parity write per stripe row, same extent shape as a data run.
        unit = self.raid.stripe_unit_blocks
        row_blocks = unit * self.raid.data_disks
        for row_start in range(start, start + count, row_blocks):
            parity_disk = self.parity_disk_for(row_start)
            _disk, physical = self.locate(row_start)
            job = self._write_job(parity_disk, physical, unit)
            if job is not None:
                jobs.append(job)
        yield self.sim.all_of(jobs)
        return None

    def _small_write(self, start: int, count: int) -> Generator:
        """Read-modify-write: old data + old parity, then both rewritten.

        With a write-back controller cache the RMW reads happen lazily at
        destage time and never block the request: only the (cache-absorbed)
        writes are charged.
        """
        runs = self._split_runs(start, count)
        if self.disks[0].params.write_back_cache:
            jobs = [
                job
                for disk, physical, length in runs
                if (job := self._write_job(disk, physical, length)) is not None
            ]
            parity_disk = self.parity_disk_for(start)
            _disk, physical = self.locate(start)
            job = self._write_job(parity_disk, physical, runs[0][2])
            if job is not None:
                jobs.append(job)
            yield self.sim.all_of(jobs)
            return None
        reads = []
        for disk, physical, length in runs:
            reads.append(self._read_job(disk, physical, length))
        parity_reads = {}
        for run_index, (_disk, physical, length) in enumerate(runs):
            # Parity unit for the row containing this run.
            parity_disk = self.parity_disk_for(
                start + sum(r[2] for r in runs[:run_index])
            )
            key = (parity_disk, physical)
            if key not in parity_reads:
                parity_reads[key] = (parity_disk, physical, length)
                reads.append(self._read_job(parity_disk, physical, length))
        yield self.sim.all_of(reads)
        writes = []
        for disk, physical, length in runs:
            job = self._write_job(disk, physical, length)
            if job is not None:
                writes.append(job)
        for parity_disk, physical, length in parity_reads.values():
            job = self._write_job(parity_disk, physical, length)
            if job is not None:
                writes.append(job)
        yield self.sim.all_of(writes)
        return None

    # -- degraded mode (repro.faults) -----------------------------------------

    def _read_job(self, disk: int, physical: int, length: int) -> Process:
        """Spawn the read for one run, reconstructing if its spindle failed."""
        if disk == self._failed:
            return self._spawn_io(self._reconstruct_read(physical, length))
        return self._spawn_io(self.disks[disk].read(physical, length))

    def _write_job(self, disk: int, physical: int, length: int) -> Optional[Process]:
        """Spawn the write for one run; writes to the failed spindle are
        skipped — the surviving data + parity updates carry the content."""
        if disk == self._failed:
            self.degraded_writes += 1
            return None
        return self._spawn_io(self.disks[disk].write(physical, length))

    def _reconstruct_read(self, physical: int, length: int) -> Generator:
        """Degraded read: fetch the extent from every survivor, XOR it back."""
        self.degraded_reads += 1
        failed = self._failed
        jobs = [
            self._spawn_io(self.disks[i].read(physical, length))
            for i in range(len(self.disks))
            if i != failed
        ]
        yield self.sim.all_of(jobs)
        # The XOR over the surviving units costs the same CPU per byte as
        # a parity computation of the reconstructed extent.
        yield from self._charge_parity(length)
        return None

    def fail_disk(self, disk: int = 0) -> None:
        """Take one spindle offline; subsequent I/O runs in degraded mode."""
        if not 0 <= disk < len(self.disks):
            raise ValueError("no such disk: %r" % (disk,))
        if self._failed is not None:
            raise RuntimeError(
                "RAID-5 survives a single failure; disk %d is already out"
                % (self._failed,)
            )
        self._failed = disk
        self.disk_failures += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                "raid.disk-fail", cat="fault", track="server", disk=disk,
            )

    def repair_disk(
        self, disk: Optional[int] = None, rebuild_blocks: int = 2048
    ) -> Generator:
        """Coroutine: rebuild a replacement spindle, then leave degraded mode.

        The rebuild walks the replaced disk one stripe unit at a time:
        read that extent from every survivor, XOR the unit back together,
        write it to the replacement.  The traffic competes with foreground
        I/O on the same spindle queues, which is the point — rebuild
        windows show up as a throughput dip in the experiment tables.
        """
        failed = self._failed if disk is None else disk
        if failed is None or failed != self._failed:
            return None
        unit = self.raid.stripe_unit_blocks
        at = 0
        total = min(rebuild_blocks, self.disks[failed].nblocks)
        while at < total:
            length = min(unit, total - at)
            survivors = [
                self._spawn_io(self.disks[i].read(at, length))
                for i in range(len(self.disks))
                if i != failed
            ]
            yield self.sim.all_of(survivors)
            yield from self._charge_parity(length)
            yield from self.disks[failed].write(at, length)
            self.rebuild_writes += 1
            at += length
        self._failed = None
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                "raid.rebuilt", cat="fault", track="server",
                disk=failed, blocks=total,
            )
        return None

    def _charge_parity(self, count: int) -> Iterable[Any]:
        """Charge parity CPU; an eager call, ``yield from`` the result."""
        if self.cpu is not None and self.parity_cpu_per_byte > 0:
            cost = self.parity_cpu_per_byte * count * self.block_size
            return self.cpu.use(cost)
        return ()
