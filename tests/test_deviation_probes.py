"""Probes of the reasons ``repro verify`` gives for its listed deviations.

Each probe runs a reduced case, shows the mechanism its reason names,
and fails on a mutant that removes the mechanism.
"""

from __future__ import annotations

import random

import pytest

import repro.cache.block_cache as block_cache
from repro.core.comparison import make_stack
from repro.paper import TABLE4
from repro.workloads.seqrand import SeqRandWorkload

CHUNK = 4096
FILE_MB = 2
NCHUNKS = FILE_MB * 1024 * 1024 // CHUNK


def _disk_ops(stack):
    return sum(disk.stats.total_ops for disk in stack.raid.disks)


def _iscsi_write(sequential, existing, monkeypatch=None):
    """Write a 2 MB file in 4 KB chunks on an iSCSI stack, in file order
    or in Table 4's random permutation, and time it through the flush.

    ``existing`` overwrites a file written and flushed beforehand instead
    of creating it.  Given ``monkeypatch``, the run's ``BlockCache.flush``
    is the mutant that keeps the dirtying order.
    """
    stack = make_stack("iscsi")
    client = stack.client
    cache = client.fs.cache
    if monkeypatch is not None:
        # flush() sorts the blocks it writes with sorted(); the mutant
        # writes them in the order this stack's cache dirtied them.
        def dirtying_order(blocks):
            wanted = set(blocks)
            return [block for block in cache._dirty if block in wanted]
        monkeypatch.setattr(block_cache, "sorted", dirtying_order,
                            raising=False)
    order = list(range(NCHUNKS))
    if not sequential:
        random.Random(42).shuffle(order)

    def fill():
        fd = yield from client.creat("/big")
        yield from client.pwrite(fd, NCHUNKS * CHUNK, 0)
        yield from client.close(fd)

    def work():
        if existing:
            fd = yield from client.open("/big")
        else:
            fd = yield from client.creat("/big")
        for index in order:
            yield from client.pwrite(fd, CHUNK, index * CHUNK)
        yield from client.close(fd)

    if existing:
        stack.run(fill(), name="fill")
        stack.quiesce()
    snap = stack.snapshot()
    ops = _disk_ops(stack)
    start = stack.now
    stack.run(work(), name="write")
    closed = {"seconds": stack.now - start, "dirty": cache.dirty_blocks,
              "disk_ops": _disk_ops(stack) - ops}
    stack.quiesce()
    return closed, {"seconds": stack.now - start,
                    "messages": stack.delta(snap).messages,
                    "disk_ops": _disk_ops(stack) - ops}


def _orders_match(seq, rand):
    """The probe's check: counts through the flush within +-2."""
    return (abs(seq["messages"] - rand["messages"]) <= 2
            and abs(seq["disk_ops"] - rand["disk_ops"]) <= 2)


def test_table4_rand_write_reason_names_the_clock_and_the_flush():
    reason = {claim.id: claim.deviation
              for claim in TABLE4.claims}["table4.iscsi-rand-write"]
    assert "close" in reason and "sorts" in reason
    assert "allocator lays" not in reason


def test_table4_rand_write_clock_stops_before_the_flush():
    # Table 4's own workload times both orders alike...
    times = [SeqRandWorkload("iscsi", file_mb=FILE_MB).run_write(sequential)
             .completion_time for sequential in (True, False)]
    assert times[0] == times[1]
    # ...because close returns with every written block still dirty in the
    # client cache: no data has reached the disks.  The flush after it is
    # most of the work, and outside the figure.
    for sequential in (True, False):
        closed, flushed = _iscsi_write(sequential, existing=False)
        assert closed["dirty"] >= NCHUNKS
        assert closed["disk_ops"] < NCHUNKS // 100
        assert flushed["seconds"] > 2 * closed["seconds"]
        assert flushed["disk_ops"] > 10 * closed["disk_ops"]


@pytest.mark.parametrize("existing", [False, True], ids=["new", "overwrite"])
def test_table4_write_order_never_reaches_the_disks(existing):
    _, seq = _iscsi_write(True, existing)
    _, rand = _iscsi_write(False, existing)
    assert _orders_match(seq, rand), (seq, rand)
    assert rand["seconds"] == pytest.approx(seq["seconds"], rel=0.02)


def test_table4_probe_fails_when_the_flush_keeps_dirtying_order(monkeypatch):
    # Overwriting in place, only the sort keeps the order off the disks:
    # without it every random block is a disk write of its own.
    _, seq = _iscsi_write(True, existing=True, monkeypatch=monkeypatch)
    _, rand = _iscsi_write(False, existing=True, monkeypatch=monkeypatch)
    assert not _orders_match(seq, rand)
    assert rand["disk_ops"] > 4 * seq["disk_ops"]
    # A new file needs no sort: ext3 hands its blocks out in write order.
    _, seq = _iscsi_write(True, existing=False, monkeypatch=monkeypatch)
    _, rand = _iscsi_write(False, existing=False, monkeypatch=monkeypatch)
    assert _orders_match(seq, rand), (seq, rand)
