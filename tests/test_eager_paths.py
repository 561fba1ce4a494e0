"""The waiting branches of the eager helpers, which the benchmarks never take.

``Ext3Fs._dirty_inode``/``_update_atime`` and ``NfsServer._invalidate``
are eager calls: they act when called and return ``()`` when there is
nothing to wait for, which is every call of a perfbench run.  These
scenarios take the other branch: a server cache at its dirty limit (the
inode block joins the journal only after the throttle wait), the
consistent meta-data cache (a CB_INVALIDATE goes out), and an RPC peer
whose inbox receives two messages at one instant (one wake record, both
handled in arrival order).  Each pins the dispatched ``(when, seq, kind)``
stream, as it was before these helpers were made eager.
"""

from __future__ import annotations

import pytest

from repro.core.comparison import make_stack
from repro.core.params import NfsParams, TestbedParams
from repro.fs import ROOT_INO, Ext3Fs
from repro.net import Message, RpcPeer
from repro.sim import Simulator
from repro.storage import Raid5Volume

from .test_net import _transport


class _Records:
    """A per-record observer keeping ``(when, seq, kind, target)``."""

    def __init__(self):
        self.records = []

    def note_event(self, record):
        self.records.append(record[:4])

    def stream(self):
        return [record[:3] for record in self.records]


# -- Ext3Fs at its cache's dirty limit ----------------------------------------


def _throttled_inode_update(entry):
    """Dirty the cache to its limit, then update an inode through ``entry``.

    Returns the journal's pending meta-data count while the update waits,
    after it, and the stream dispatched from the update's start.
    """
    sim = Simulator()
    fs = Ext3Fs(sim, Raid5Volume(sim), cache_bytes=32 * 4096)
    sim.run_process(fs.mount())

    def setup():
        root = yield from fs.iget(ROOT_INO)
        inode = yield from fs.create(root, "f")
        yield from fs.write_file(inode, 0, 4096)
        yield from fs.quiesce()
        return inode

    inode = sim.run_process(setup())
    assert fs.journal.pending_metadata == 0 and fs.cache.dirty_blocks == 0
    cache = fs.cache
    block = fs.layout.data_start + fs.layout.data_blocks - cache.dirty_limit
    while cache.dirty_blocks < cache.dirty_limit:
        assert cache.write(block) == ()
        block += 1

    def update():
        if entry == "setattr":
            yield from fs.setattr(inode, mode=0o600)
        else:
            yield from fs.read_file(inode, 0, 4096)

    sim.recorder = observer = _Records()
    start = sim.now
    proc = sim.spawn(update(), name="update")
    sim.run(until=start)
    waiting = (proc.triggered, fs.journal.pending_metadata)

    def join():
        yield proc

    sim.run_process(join())
    return waiting, fs.journal.pending_metadata, sim.now > start, observer.stream()


_THROTTLED = [
    (0.008700394387637332, 62, 0),
    (0.008700394387637332, 63, 2),
    (0.008700394387637332, 64, 2),
    (0.008700394387637332, 65, 2),
    (0.008700394387637332, 66, 2),
    (0.008700394387637332, 67, 2),
    (0.008700394387637332, 70, 2),
    (0.009132894387637333, 68, 2),
    (0.009132894387637333, 69, 2),
    (0.009132894387637333, 71, 0),
    (0.009132894387637333, 72, 0),
    (0.009132894387637333, 73, 0),
    (0.009132894387637333, 74, 0),
    (0.009132894387637333, 75, 0),
    (0.009132894387637333, 76, 0),
    (0.009132894387637333, 77, 0),
    (0.009132894387637333, 78, 0),
]


@pytest.mark.parametrize("entry", ["setattr", "read_file"])
def test_inode_update_at_the_dirty_limit_joins_the_journal_after_the_wait(entry):
    # setattr dirties the inode (_dirty_inode); read_file stamps its
    # access time (_update_atime).  Neither charges CPU on a bare
    # filesystem and the read hits, so both dispatch the same stream.
    waiting, after, waited, stream = _throttled_inode_update(entry)
    assert waiting == (False, 0)   # still throttled, nothing journaled yet
    assert after == 1 and waited   # the inode block, once the flush freed room
    assert stream == _THROTTLED


# -- NfsServer._invalidate under the consistent meta-data cache -----------------


def _invalidating_setattr():
    params = TestbedParams(nfs=NfsParams(consistent_metadata_cache=True))
    stack = make_stack("nfsv3", params)
    client = stack.nfs_client

    def setup():
        fd = yield from client.creat("/f")
        yield from client.close(fd)

    stack.run(setup())
    stack.quiesce()
    ino = stack.fs.inodes[ROOT_INO].entries["f"]
    state = stack.server.state
    # A second client caching the file: the server calls it back over
    # the only connection there is, this client's.
    state.cache_registry.setdefault(ino, set()).add("other")
    before = stack.snapshot()
    stack.sim.recorder = observer = _Records()

    def chmod():
        yield from client.chmod("/f", 0o600)

    stack.run(chmod())
    delta = stack.delta(before)
    return state.callbacks_sent, dict(delta.by_op), observer.stream()


_INVALIDATE = [
    (0.008207904027680787, 92, 0),
    (0.008207904027680787, 93, 2),
    (0.008230672027680786, 94, 4),
    (0.008331696027680786, 95, 1),
    (0.008331696027680786, 97, 2),
    (0.008331696027680786, 98, 2),
    (0.008379464027680786, 99, 4),
    (0.008385464027680787, 100, 4),
    (0.008433328027680787, 101, 4),
    (0.008534480027680787, 102, 1),
    (0.008534480027680787, 103, 2),
    (0.008534480027680787, 104, 2),
    (0.008557344027680786, 105, 4),
    (0.008579728027680786, 106, 4),
    (0.008602544027680787, 107, 4),
    (0.008602544027680787, 109, 0),
    (0.008703632027680786, 108, 1),
    (0.008703632027680786, 110, 2),
    (0.008703632027680786, 111, 0),
    (0.008751976027680786, 112, 4),
    (0.008751976027680786, 114, 0),
    (0.008853768027680786, 113, 1),
    (0.008853768027680786, 115, 2),
    (0.008853768027680786, 116, 0),
    (0.008853768027680786, 117, 0),
]


def test_setattr_under_consistent_cache_sends_one_cb_invalidate():
    callbacks, by_op, stream = _invalidating_setattr()
    assert callbacks == 1
    assert by_op == {"SETATTR": 1, "CB_INVALIDATE": 1}
    assert stream == _INVALIDATE


# -- RpcPeer: two messages at one instant -------------------------------------------


def _two_messages_at_one_instant():
    sim = Simulator()
    transport = _transport(sim)
    server = RpcPeer(sim, transport.server, transport.send_from_server,
                     name="server")
    served = []

    def handler(message):
        served.append((message.op, sim.now))
        return 0, {"status": "ok"}
        yield  # pragma: no cover

    server.set_handler(handler)

    def deliver():
        yield sim.timeout(1.0)
        transport.server.inbox.put(Message(op="A"))
        transport.server.inbox.put(Message(op="B"))

    sim.recorder = observer = _Records()
    sim.run_process(deliver())
    sim.run()
    wakes = [record[:3] for record in observer.records
             if record[3] is server._dispatcher]
    return served, wakes, observer.stream()


_TWO_MESSAGES = [
    (0.0, 1, 2),
    (0.0, 2, 2),
    (1.0, 3, 0),
    (1.0, 4, 2),
    (1.0, 5, 0),
    (1.0, 6, 2),
    (1.0, 7, 2),
    (1.0, 9, 0),
    (1.0, 11, 0),
    (1.000501024, 8, 1),
    (1.000502048, 10, 1),
]


def test_rpc_peer_takes_two_same_instant_messages_on_one_wake_in_order():
    served, wakes, stream = _two_messages_at_one_instant()
    assert served == [("A", 1.0), ("B", 1.0)]
    # The dispatcher's start, then one wake record for both messages.
    assert [kind for _, _, kind in wakes] == [2, 2]
    assert wakes[1][0] == 1.0
    assert stream == _TWO_MESSAGES
