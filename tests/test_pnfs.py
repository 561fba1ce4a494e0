"""pNFS-style export striping: layout determinism and the striped client."""

import pytest

from repro.core.multiclient import SharedNfsTestbed
from repro.core.runner import Cell, ExperimentRunner
from repro.nfs.pnfs import StripeLayout, StripedNfsClient


# -- the layout function -------------------------------------------------------


def test_layout_rejects_zero_servers():
    with pytest.raises(ValueError):
        StripeLayout(0)


def test_layout_is_deterministic_across_instances():
    paths = ["/a/b", "/a/c", "/pm/f%03d" % 7, "shared/f00", "/x" * 40]
    first = [StripeLayout(5).server_for(path) for path in paths]
    second = [StripeLayout(5).server_for(path) for path in paths]
    assert first == second
    assert all(0 <= server < 5 for server in first)


def test_layout_spreads_files_over_servers():
    layout = StripeLayout(4)
    homes = {layout.server_for("/d/f%d" % index) for index in range(64)}
    assert homes == {0, 1, 2, 3}


def test_layout_is_stable_across_worker_processes():
    """The same farm cell must produce identical results whether its
    layout hashing runs in-process or in ``--jobs`` worker processes —
    the crc32 layout must not depend on PYTHONHASHSEED."""
    cell = Cell("farm", "farm_point", {
        "protocol": "nfs", "nclients": 6, "nservers": 3, "connections": 1,
        "sharing": 0.25, "requests": 4})
    serial = ExperimentRunner(jobs=None, use_cache=False).run([cell])
    forked = ExperimentRunner(jobs=2, use_cache=False).run([cell])
    assert serial == forked


# -- the striped client --------------------------------------------------------


def test_striped_client_validates_wiring():
    with pytest.raises(ValueError):
        StripedNfsClient(None, [])
    bed = SharedNfsTestbed(nclients=2, nservers=2, striped=True)
    with pytest.raises(ValueError):
        StripedNfsClient(bed.sim, bed.clients[0].clients,
                         layout=StripeLayout(3))


def _striped_workload(client, tag, files=8):
    def run():
        yield from client.mkdir("/%s" % tag)
        for index in range(files):
            path = "/%s/f%d" % (tag, index)
            fd = yield from client.creat(path)
            yield from client.write(fd, 16_384)
            yield from client.fsync(fd)
            yield from client.close(fd)
        names = yield from client.readdir("/%s" % tag)
        return names
    return run


def test_striped_bed_routes_files_to_layout_homes():
    bed = SharedNfsTestbed(nclients=2, nservers=3, striped=True)
    client = bed.clients[0]
    bed.add_workload(0, _striped_workload(client, "d"))
    bed.run_phase()
    bed.quiesce()
    # readdir unions the per-server views back into one namespace.
    names = bed.run(client.readdir("/d"))
    assert names == sorted("f%d" % index for index in range(8))
    # Every file lives only on its layout home.
    layout = bed.layout
    for index in range(8):
        path = "/d/f%d" % index
        assert client._layouts[path] == layout.server_for(path)
    # mkdir fanned out: the directory skeleton exists on every server.
    for inner in client.clients:
        assert bed.run(inner.readdir("/")) == ["d"]
    # First touches cost LAYOUTGET grants, answered by the MDS.
    assert client.layout_gets == 8
    assert client.layouts_cached == 8
    assert bed.layouts_granted == 8


def test_striped_messages_split_across_servers():
    bed = SharedNfsTestbed(nclients=2, nservers=3, striped=True)
    for index, client in enumerate(bed.clients):
        bed.add_workload(index, _striped_workload(client, "c%d" % index))
    bed.run_phase()
    bed.quiesce()
    per_server = bed.messages_by_server
    assert len(per_server) == 3
    assert all(count > 0 for count in per_server)
    assert sum(per_server) == bed.total_messages


def test_striped_rename_stays_on_home_server():
    bed = SharedNfsTestbed(nclients=2, nservers=4, striped=True)
    client = bed.clients[0]
    layout = bed.layout

    # Find two names with the same home and one with a different home.
    home0 = layout.server_for("/r/a")
    same = next("/r/s%d" % index for index in range(64)
                if layout.server_for("/r/s%d" % index) == home0)
    other = next("/r/o%d" % index for index in range(64)
                 if layout.server_for("/r/o%d" % index) != home0)

    def work():
        yield from client.mkdir("/r")
        fd = yield from client.creat("/r/a")
        yield from client.close(fd)
        yield from client.rename("/r/a", same)
        return True

    assert bed.run(work())

    def crossing():
        yield from client.rename(same, other)

    with pytest.raises(ValueError):
        bed.run(crossing())


def test_unstriped_bed_is_untouched():
    """striped=False keeps the classic one-mount wiring: no layout, no
    LAYOUTGET traffic, plain NfsClient front ends."""
    bed = SharedNfsTestbed(nclients=2, nservers=2)
    assert bed.layout is None
    assert all(state.layout is None for state in bed.states)
    a, _b = bed.clients

    def work():
        yield from a.mkdir("/p")
        fd = yield from a.creat("/p/f")
        yield from a.close(fd)
        return True

    assert bed.run(work())
    assert bed.layouts_granted == 0


def _then_settle(client, call):
    # Writes are deferred to the page cache: settle write-back so the
    # WRITE/COMMIT traffic lands inside the measured window.
    yield from call
    yield from client.quiesce()


def _seek_then_read(client, fd):
    # lseek is wire-silent; the read after it shows which connection
    # holds the moved cursor.
    client.lseek(fd, 4096)
    got = yield from client.read(fd, 4096)
    return got


# Every StripedNfsClient method routed by the layout (path ops) or by
# the fd table (fd ops).  ``dirty`` cases leave unflushed pages behind
# before the measured call, so close/fsync have data to push.
_ROUTED_OPS = {
    "creat": (False, lambda c, path, fd, twin: c.creat(path)),
    "open": (False, lambda c, path, fd, twin: c.open(path)),
    "stat": (False, lambda c, path, fd, twin: c.stat(path)),
    "access": (False, lambda c, path, fd, twin: c.access(path)),
    "chmod": (False, lambda c, path, fd, twin: c.chmod(path, 0o600)),
    "truncate": (False, lambda c, path, fd, twin: c.truncate(path, 0)),
    "unlink": (False, lambda c, path, fd, twin: c.unlink(path)),
    "rename": (False, lambda c, path, fd, twin: c.rename(path, twin)),
    "read": (False, lambda c, path, fd, twin: c.read(fd, 4096)),
    "pread": (False, lambda c, path, fd, twin: c.pread(fd, 4096, 4096)),
    "write": (False,
              lambda c, path, fd, twin: _then_settle(c, c.write(fd, 4096))),
    "pwrite": (False, lambda c, path, fd, twin:
               _then_settle(c, c.pwrite(fd, 4096, 8192))),
    "lseek": (False, lambda c, path, fd, twin: _seek_then_read(c, fd)),
    "fstat": (False, lambda c, path, fd, twin: c.fstat(fd)),
    "fsync": (True, lambda c, path, fd, twin: c.fsync(fd)),
    "close": (True, lambda c, path, fd, twin: c.close(fd)),
}


@pytest.mark.parametrize("op", sorted(_ROUTED_OPS))
def test_routed_op_reaches_only_the_layout_home(op):
    dirty, call = _ROUTED_OPS[op]
    bed = SharedNfsTestbed(nclients=2, nservers=3, striped=True)
    client = bed.clients[0]
    layout = bed.layout
    # Server 0 doubles as the metadata server: a home elsewhere makes a
    # call misrouted to the MDS connection visible in the counters.
    path = next("/f%d" % index for index in range(64)
                if layout.server_for("/f%d" % index) != 0)
    home = layout.server_for(path)
    twin = next("/g%d" % index for index in range(64)
                if layout.server_for("/g%d" % index) == home)

    def setup():
        fd = yield from client.creat(twin)   # rename's target, replaced
        yield from client.close(fd)
        fd = yield from client.creat(path)
        yield from client.write(fd, 16_384)
        yield from client.close(fd)
        fd = yield from client.open(path)
        # Cold caches, layout still held: the call must go to the wire.
        yield from client.drop_caches()
        if dirty:
            yield from client.write(fd, 4096)
        return fd

    fd = bed.run(setup())
    before = bed.messages_by_server
    grants = client.layout_gets
    bed.run(call(client, path, fd, twin))
    delta = [after - was for after, was in zip(bed.messages_by_server, before)]
    assert client.layout_gets == grants
    assert delta[home] > 0
    assert delta[:home] + delta[home + 1:] == [0, 0]
