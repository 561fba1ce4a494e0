"""Unit tests for the NFS client/server pair — behaviors the paper leans on."""

import pytest

from repro.core import make_stack
from repro.core.params import NfsParams, TestbedParams
from repro.fs import FileExists, FileNotFound
from repro.nfs import protocol as p


def ops(delta):
    return dict(delta.by_op)


# ---------------------------------------------------------------- basics

def test_lookup_caches_dentries(nfs_stack):
    c = nfs_stack.client

    def setup():
        fd = yield from c.creat("/f")
        yield from c.close(fd)

    nfs_stack.run(setup())
    nfs_stack.quiesce()
    snap = nfs_stack.snapshot()

    def twice():
        yield from c.stat("/f")
        yield from c.stat("/f")

    nfs_stack.run(twice())
    delta = nfs_stack.delta(snap)
    # dentry cached: at most one LOOKUP despite two walks
    assert delta.by_op.get(p.LOOKUP, 0) <= 1


def test_attr_cache_expires_after_validity(nfs_stack):
    c = nfs_stack.client

    def setup():
        fd = yield from c.creat("/f")
        yield from c.close(fd)
        yield from c.access("/f")

    nfs_stack.run(setup())
    snap = nfs_stack.snapshot()

    def later():
        yield nfs_stack.sim.timeout(5.0)   # > 3 s validity
        yield from c.access("/f")

    nfs_stack.run(later())
    delta = nfs_stack.delta(snap)
    assert delta.messages >= 1             # revalidation traffic


def test_mkdir_enoent_probe_then_create(nfs_stack):
    c = nfs_stack.client
    snap = nfs_stack.snapshot()

    def work():
        yield from c.mkdir("/newdir")

    nfs_stack.run(work())
    by_op = ops(nfs_stack.delta(snap))
    assert by_op.get(p.LOOKUP) == 1        # existence probe (ENOENT)
    assert by_op.get(p.MKDIR) == 1


def test_duplicate_create_raises(nfs_stack):
    c = nfs_stack.client

    def work():
        yield from c.mkdir("/d")
        yield from c.mkdir("/d")

    with pytest.raises(FileExists):
        nfs_stack.run(work())


def test_enoent_surfaces(nfs_stack):
    c = nfs_stack.client

    def work():
        yield from c.stat("/missing")

    with pytest.raises(FileNotFound):
        nfs_stack.run(work())


def test_write_then_read_through_cache(nfs_stack):
    c = nfs_stack.client

    def work():
        fd = yield from c.creat("/data")
        yield from c.write(fd, 20_000)
        yield from c.close(fd)
        fd = yield from c.open("/data")
        got = yield from c.read(fd, 50_000)
        yield from c.close(fd)
        return got

    assert nfs_stack.run(work()) == 20_000


def test_stat_reflects_local_dirty_size(nfs_stack):
    """Async writes must be visible to stat before they hit the server."""
    c = nfs_stack.client

    def work():
        fd = yield from c.creat("/grow")
        yield from c.write(fd, 123_456)
        st = yield from c.fstat(fd)
        yield from c.close(fd)
        return st.size

    assert nfs_stack.run(work()) == 123_456


def test_async_writes_are_deferred_and_flushed_by_close(nfs_stack):
    c = nfs_stack.client

    def work():
        fd = yield from c.creat("/lazy")
        yield from c.write(fd, 8 * 4096)
        before_close = nfs_stack.counters.by_op.get(p.WRITE, 0)
        yield from c.close(fd)
        return before_close

    before_close = nfs_stack.run(work())
    after = nfs_stack.counters.by_op.get(p.WRITE, 0)
    assert before_close == 0          # writes sat in the client cache
    assert after >= 8                 # close pushed them out
    assert nfs_stack.counters.by_op.get(p.COMMIT, 0) >= 1


def test_v2_writes_are_synchronous():
    stack = make_stack("nfsv2")
    c = stack.client

    def work():
        fd = yield from c.creat("/sync")
        yield from c.write(fd, 4 * 4096)
        return stack.counters.by_op.get(p.WRITE, 0)

    writes_at_return = stack.run(work())
    assert writes_at_return >= 2      # already on the wire at write() return


def test_pending_write_limit_throttles():
    """Beyond the async pool, writers run at WRITE-completion speed."""
    fast = TestbedParams()
    slow_pool = TestbedParams(nfs=NfsParams(max_pending_writes=2))
    times = {}
    for label, params in (("wide", fast), ("narrow", slow_pool)):
        stack = make_stack("nfsv3", params)
        c = stack.client

        def work(c=c):
            fd = yield from c.creat("/big")
            for _ in range(256):
                yield from c.write(fd, 4096)
            yield from c.close(fd)

        start = stack.now
        stack.run(work())
        times[label] = stack.now - start
    assert times["narrow"] > times["wide"]


def test_mtime_change_invalidates_data_cache(nfs_stack):
    """Another writer bumping mtime must drop cached pages."""
    c = nfs_stack.client
    fs = nfs_stack.fs

    def work():
        fd = yield from c.creat("/shared")
        yield from c.write(fd, 8192)
        yield from c.close(fd)
        fd = yield from c.open("/shared")
        yield from c.read(fd, 8192)
        # Server-side modification behind the client's back:
        inode = yield from fs.iget(
            (yield from fs.dir_lookup(fs.inodes[1], "shared"))
        )
        yield nfs_stack.sim.timeout(4.0)
        yield from fs.write_file(inode, 0, 4096)
        yield nfs_stack.sim.timeout(4.0)
        before = nfs_stack.counters.by_op.get(p.READ, 0)
        yield from c.pread(fd, 8192, 0)
        return before, nfs_stack.counters.by_op.get(p.READ, 0)

    before, after = nfs_stack.run(work())
    assert after > before    # pages were refetched


def test_commit_forces_server_flush(nfs_stack):
    c = nfs_stack.client

    def work():
        fd = yield from c.creat("/durable")
        yield from c.write(fd, 64 * 4096)
        before = nfs_stack.raid.stats.write_ops
        yield from c.fsync(fd)
        return before, nfs_stack.raid.stats.write_ops

    before, after = nfs_stack.run(work())
    assert after > before


def test_rename_updates_client_view(nfs_stack):
    c = nfs_stack.client

    def work():
        fd = yield from c.creat("/old")
        yield from c.close(fd)
        yield from c.rename("/old", "/new")
        st = yield from c.stat("/new")
        try:
            yield from c.stat("/old")
        except FileNotFound:
            return st.itype
        return "old still visible"

    assert nfs_stack.run(work()) == "file"


def test_readdir_cached_with_getattr_check(nfs_stack):
    c = nfs_stack.client

    def setup():
        yield from c.mkdir("/d")
        fd = yield from c.creat("/d/f")
        yield from c.close(fd)
        yield from c.readdir("/d")

    nfs_stack.run(setup())
    snap = nfs_stack.snapshot()

    def again():
        names = yield from c.readdir("/d")
        return names

    names = nfs_stack.run(again())
    by_op = ops(nfs_stack.delta(snap))
    assert names == ["f"]
    assert by_op.get(p.READDIR, 0) == 0   # served from the dir cache
    assert by_op.get(p.GETATTR, 0) <= 1   # one consistency check at most


# ---------------------------------------------------------------- v4

def test_v4_open_ceremony_and_close():
    stack = make_stack("nfsv4")
    c = stack.client

    def setup():
        fd = yield from c.creat("/f")
        yield from c.close(fd)

    stack.run(setup())
    stack.quiesce()
    snap = stack.snapshot()

    def openclose():
        fd = yield from c.open("/f")
        yield from c.close(fd)

    stack.run(openclose())
    by_op = ops(stack.delta(snap))
    assert by_op.get(p.OPEN) == 1
    assert by_op.get(p.CLOSE) == 1


def test_v4_access_per_directory():
    stack = make_stack("nfsv4")
    c = stack.client

    def setup():
        yield from c.mkdir("/a")
        yield from c.mkdir("/a/b")
        fd = yield from c.creat("/a/b/f")
        yield from c.close(fd)

    stack.run(setup())
    stack.make_cold()
    snap = stack.snapshot()

    def walk():
        yield from c.stat("/a/b/f")

    stack.run(walk())
    by_op = ops(stack.delta(snap))
    assert by_op.get(p.ACCESS, 0) >= 3    # root, /a, /a/b


def test_v4_delegated_file_skips_read_revalidation():
    stack = make_stack("nfsv4")
    c = stack.client

    def work():
        fd = yield from c.creat("/f")
        yield from c.write(fd, 8192)
        yield from c.close(fd)
        fd = yield from c.open("/f")
        yield from c.read(fd, 8192)
        yield stack.sim.timeout(10.0)
        before = stack.counters.by_op.get(p.GETATTR, 0)
        yield from c.pread(fd, 8192, 0)
        return before, stack.counters.by_op.get(p.GETATTR, 0)

    before, after = stack.run(work())
    assert after == before    # delegation: no consistency check


# ------------------------------------------------------- replay semantics


class _OneShot:
    """Transport fault that hits only the first ``op`` message going one
    way: ``forward`` picks requests (client to server) or replies."""

    def __init__(self, op, forward, verdict, extra=0.0):
        self.op = op
        self.forward = forward
        self.verdict = verdict
        self.extra = extra
        self.hits = 0

    def filter_message(self, message, forward):
        if forward == self.forward and message.op == self.op \
                and not self.hits:
            self.hits += 1
            return self.verdict, self.extra
        return None, 0.0


def _make_file(c, path):
    fd = yield from c.creat(path)
    yield from c.close(fd)


# One row per replay-table handler in NfsClient:
# syscall -> (wire op, error a replay absorbs, setup, call, names in /)
_REPLAY_ROWS = {
    "mkdir": (p.MKDIR, FileExists, None,
              lambda c: c.mkdir("/d"), ["d"]),
    "rmdir": (p.RMDIR, FileNotFound, lambda c: c.mkdir("/d"),
              lambda c: c.rmdir("/d"), []),
    "creat": (p.CREATE, FileExists, None,
              lambda c: _make_file(c, "/f"), ["f"]),
    "unlink": (p.REMOVE, FileNotFound, lambda c: _make_file(c, "/f"),
               lambda c: c.unlink("/f"), []),
    "rename": (p.RENAME, FileNotFound, lambda c: _make_file(c, "/a"),
               lambda c: c.rename("/a", "/b"), ["b"]),
}


def _replay_stack(setup):
    stack = make_stack("nfsv3")
    if setup is not None:
        stack.run(setup(stack.client))
    stack.quiesce()
    return stack


@pytest.mark.parametrize("syscall", sorted(_REPLAY_ROWS))
def test_replayed_op_error_is_absorbed(syscall):
    op, _error, setup, call, names = _REPLAY_ROWS[syscall]
    stack = _replay_stack(setup)
    # The op's first reply is lost.  Over TCP the retry resets the
    # connection and goes out under a fresh xid, which the server's
    # duplicate-request cache cannot answer: the op runs a second time
    # and fails, and the reply to the retry is marked a retransmission.
    fault = _OneShot(op, forward=False, verdict="drop")
    stack.sim.fault = fault
    snap = stack.snapshot()
    stack.run(call(stack.client))
    delta = stack.delta(snap)
    assert fault.hits == 1
    assert delta.by_op[op] == 2
    assert delta.retransmissions == 1
    stack.sim.fault = None
    stack.make_cold()
    assert stack.run(stack.client.readdir("/")) == names


@pytest.mark.parametrize("syscall", sorted(_REPLAY_ROWS))
def test_same_error_on_first_transmission_raises(syscall):
    op, error, setup, call, names = _REPLAY_ROWS[syscall]
    stack = _replay_stack(setup)
    sim = stack.sim
    # Two racing calls; the first one's request is held on the wire
    # (inside the retransmit timer) while the second completes.  When it
    # lands its error is real, not a replay artifact, and must surface.
    fault = _OneShot(op, forward=True, verdict="delay", extra=0.5)
    stack.sim.fault = fault
    outcomes = []

    def attempt():
        try:
            yield from call(stack.client)
        except error:
            outcomes.append("raised")
        else:
            outcomes.append("ok")

    def race():
        yield sim.all_of([sim.spawn(attempt(), name="held"),
                          sim.spawn(attempt(), name="twin")])

    snap = stack.snapshot()
    stack.run(race())
    delta = stack.delta(snap)
    assert fault.hits == 1
    assert delta.by_op[op] == 2
    assert delta.retransmissions == 0
    assert outcomes == ["ok", "raised"]
    stack.sim.fault = None
    stack.make_cold()
    assert stack.run(stack.client.readdir("/")) == names
