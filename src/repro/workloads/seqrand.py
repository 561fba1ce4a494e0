"""Sequential and random streaming I/O (Table 4, Figure 6).

The paper's protocol: a 128 MB file accessed in 4 KB chunks, sequentially
or in a random permutation of its 32 K blocks.  Completion time is the
application's elapsed time; message/byte counts include the asynchronous
flush that follows (the packet capture keeps running), which is how iSCSI
reports 2 s yet ~143 MB of traffic for sequential writes.

Figure 6 reruns the same workloads under NISTNet-style RTT inflation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..core.comparison import StorageStack, make_stack
from ..core.counters import CountersSnapshot
from ..core.params import TestbedParams

__all__ = ["IoResult", "SeqRandWorkload", "run_table4", "run_latency_sweep"]

CHUNK = 4096


@dataclass
class IoResult:
    """One cell group of Table 4."""

    completion_time: float
    messages: int
    bytes: int
    retransmissions: int

    def __str__(self) -> str:  # pragma: no cover - convenience
        return "%.1fs  %d msgs  %.1f MB" % (
            self.completion_time, self.messages, self.bytes / 1e6)


class SeqRandWorkload:
    """128 MB (scalable) streaming reads/writes over any stack."""

    def __init__(
        self,
        kind: str,
        file_mb: int = 128,
        chunk: int = CHUNK,
        params: Optional[TestbedParams] = None,
        rtt: Optional[float] = None,
        seed: int = 42,
    ):
        self.kind = kind
        self.file_bytes = file_mb * 1024 * 1024
        self.chunk = chunk
        self.params = params
        self.rtt = rtt
        self.rng = random.Random(seed)

    @property
    def nchunks(self) -> int:
        return self.file_bytes // self.chunk

    def _stack(self) -> StorageStack:
        stack = make_stack(self.kind, self.params)
        if self.rtt is not None:
            stack.set_rtt(self.rtt)
        return stack

    # -- writes ------------------------------------------------------------------

    def run_write(self, sequential: bool) -> IoResult:
        """Coroutine driver: the write variant (sequential or random)."""
        stack = self._stack()
        client = stack.client
        order = list(range(self.nchunks))
        if not sequential:
            self.rng.shuffle(order)

        def work():
            fd = yield from client.creat("/big")
            if sequential:
                for _ in range(self.nchunks):
                    yield from client.write(fd, self.chunk)
            else:
                for index in order:
                    yield from client.pwrite(fd, self.chunk, index * self.chunk)
            yield from client.close(fd)
            return None

        snap = stack.snapshot()
        start = stack.now
        stack.run(work(), name="write")
        elapsed = stack.now - start
        stack.quiesce()   # the capture sees the flush; the app already exited
        return self._result(stack, snap, elapsed)

    # -- reads --------------------------------------------------------------------

    def run_read(self, sequential: bool) -> IoResult:
        """Coroutine driver: the read variant (sequential or random)."""
        stack = self._stack()
        client = stack.client
        order = list(range(self.nchunks))
        if not sequential:
            self.rng.shuffle(order)

        def prepare():
            fd = yield from client.creat("/big")
            for _ in range(self.nchunks):
                yield from client.write(fd, self.chunk)
            yield from client.close(fd)
            return None

        stack.run(prepare(), name="prepare")
        stack.quiesce()
        stack.make_cold()

        def work():
            fd = yield from client.open("/big")
            if sequential:
                for _ in range(self.nchunks):
                    yield from client.read(fd, self.chunk)
            else:
                for index in order:
                    yield from client.pread(fd, self.chunk, index * self.chunk)
            yield from client.close(fd)
            return None

        snap = stack.snapshot()
        start = stack.now
        stack.run(work(), name="read")
        elapsed = stack.now - start
        stack.quiesce()
        return self._result(stack, snap, elapsed)

    @staticmethod
    def _result(stack: StorageStack, snap: CountersSnapshot, elapsed: float) -> IoResult:
        delta = stack.delta(snap)
        return IoResult(
            completion_time=elapsed,
            messages=delta.messages,
            bytes=delta.total_bytes,
            retransmissions=delta.retransmissions,
        )


def run_table4(
    file_mb: int = 128,
    params: Optional[TestbedParams] = None,
) -> dict:
    """Full Table 4: NFS v3 vs iSCSI, seq/random reads and writes."""
    table = {}
    for kind in ("nfsv3", "iscsi"):
        for mode in ("seq-read", "rand-read", "seq-write", "rand-write"):
            workload = SeqRandWorkload(kind, file_mb=file_mb, params=params)
            sequential = mode.startswith("seq")
            if mode.endswith("read"):
                table[(kind, mode)] = workload.run_read(sequential)
            else:
                table[(kind, mode)] = workload.run_write(sequential)
    return table


def run_latency_sweep(
    rtts=(0.010, 0.030, 0.050, 0.070, 0.090),
    mode: str = "seq-read",
    file_mb: int = 128,
    params: Optional[TestbedParams] = None,
) -> dict:
    """Figure 6: completion time vs RTT for both stacks."""
    results = {}
    sequential = mode.startswith("seq")
    read = mode.endswith("read")
    for kind in ("nfsv3", "iscsi"):
        for rtt in rtts:
            workload = SeqRandWorkload(kind, file_mb=file_mb, params=params, rtt=rtt)
            if read:
                results[(kind, rtt)] = workload.run_read(sequential)
            else:
                results[(kind, rtt)] = workload.run_write(sequential)
    return results
