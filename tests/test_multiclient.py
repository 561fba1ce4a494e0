"""Tests for the shared (multi-client) NFS testbed."""

import pytest

from repro.core.multiclient import SharedNfsTestbed


def test_rejects_iscsi_and_single_client():
    with pytest.raises(ValueError):
        SharedNfsTestbed(kind="iscsi")
    with pytest.raises(ValueError):
        SharedNfsTestbed(nclients=1)


def _share_a_namespace(kind):
    """A writes a file; B stats it and lists its directory.  Returns
    B's view and the protocol requests both clients sent."""
    bed = SharedNfsTestbed(nclients=2, kind=kind)
    a, b = bed.clients

    def work():
        yield from a.mkdir("/shared")
        fd = yield from a.creat("/shared/doc")
        yield from a.write(fd, 12_000)
        yield from a.close(fd)
        st = yield from b.stat("/shared/doc")
        names = yield from b.readdir("/shared")
        return st.size, names

    size, names = bed.run(work())
    bed.quiesce()
    return size, names, bed.total_messages


def test_two_clients_see_one_namespace():
    size, names, _messages = _share_a_namespace("nfsv3")
    assert size == 12_000
    assert names == ["doc"]


def test_nfsv2_clients_share_a_namespace():
    """The same sharing over NFS v2's UDP mount (lossy transport,
    retransmit policy)."""
    size, names, messages = _share_a_namespace("nfsv2")
    assert size == 12_000
    assert names == ["doc"]
    assert messages == 12


def test_writer_update_visible_after_attr_timeout():
    """Weak consistency, as NFS v3 defines it: B sees A's update after
    its attribute cache expires and the consistency check notices."""
    bed = SharedNfsTestbed(nclients=2, kind="nfsv3")
    a, b = bed.clients

    def work():
        fd = yield from a.creat("/f")
        yield from a.write(fd, 4096)
        yield from a.close(fd)
        fd_b = yield from b.open("/f")
        first = yield from b.read(fd_b, 1 << 20)
        # A grows the file; B re-reads after the 3 s validity window.
        fd = yield from a.open("/f", 1)
        yield from a.pwrite(fd, 4096, 4096)
        yield from a.close(fd)
        yield bed.sim.timeout(4.0)
        second = yield from b.pread(fd_b, 1 << 20, 0)
        return first, second

    first, second = bed.run(work())
    assert first == 4096
    assert second == 8192
    bed.quiesce()


def test_per_client_message_accounting():
    bed = SharedNfsTestbed(nclients=2, kind="nfsv3")
    a, b = bed.clients

    def work():
        yield from a.mkdir("/only-a")
        st = yield from b.stat("/only-a")
        return st.itype

    assert bed.run(work()) == "dir"
    assert bed.counters[0].messages >= 2   # A's mkdir traffic
    assert bed.counters[1].messages >= 1   # B's stat traffic


def test_enhanced_invalidation_callback_between_live_clients():
    """Section 7, live: B caches a directory's attributes; A mutates it;
    the server calls B back; B's next read refetches."""
    bed = SharedNfsTestbed(nclients=2, kind="nfs-enhanced")
    a, b = bed.clients

    def work():
        fd = yield from a.creat("/f")
        yield from a.close(fd)
        yield from a.quiesce()
        yield from b.stat("/f")            # B now holds /f's meta-data
        before = bed.callbacks_sent
        yield from a.chmod("/f", 0o600)    # A mutates it
        yield from a.quiesce()
        return before, bed.callbacks_sent

    before, after = bed.run(work())
    assert after > before


def test_enhanced_consistent_read_after_callback():
    bed = SharedNfsTestbed(nclients=2, kind="nfs-enhanced")
    a, b = bed.clients

    def work():
        fd = yield from a.creat("/f")
        yield from a.close(fd)
        yield from a.quiesce()
        st1 = yield from b.stat("/f")
        yield from a.chmod("/f", 0o640)
        yield from a.quiesce()
        yield bed.sim.timeout(0.1)         # let the callback land
        st2 = yield from b.stat("/f")
        return st1.mode, st2.mode

    mode_before, mode_after = bed.run(work())
    assert mode_after == 0o640
    assert mode_before != mode_after


def test_delegation_recall_on_competing_mutation():
    """A holds a directory delegation; B starts mutating the same
    directory: the server recalls A's delegation (A replays its pending
    records first), then grants B's."""
    bed = SharedNfsTestbed(nclients=2, kind="nfs-enhanced")
    a, b = bed.clients

    def work():
        yield from a.mkdir("/proj")            # A acquires the delegation
        fd = yield from a.creat("/proj/a-file")
        yield from a.close(fd)
        recalls_before = bed.state.delegations_recalled
        fd = yield from b.creat("/proj/b-file")   # B forces a recall
        yield from b.close(fd)
        yield from a.quiesce()
        yield from b.quiesce()
        names = yield from a.readdir("/proj")
        return recalls_before, bed.state.delegations_recalled, names

    before, after, names = bed.run(work())
    assert after > before
    assert sorted(names) == ["a-file", "b-file"]
    bed.quiesce()


def test_shared_consistency_costs_vs_unshared():
    """The paper's framing: the consistency checks that slow the unshared
    case are exactly what makes the shared case coherent.  Run the same
    read-mostly loop alone and with a second client mutating; the shared
    run must still return correct data."""
    bed = SharedNfsTestbed(nclients=2, kind="nfsv3")
    a, b = bed.clients

    def work():
        fd = yield from a.creat("/log")
        yield from a.write(fd, 4096)
        yield from a.close(fd)
        sizes = []
        for round_number in range(1, 5):
            fd = yield from a.open("/log", 1)
            yield from a.pwrite(fd, 4096, round_number * 4096)
            yield from a.close(fd)
            yield bed.sim.timeout(4.0)
            st = yield from b.stat("/log")
            sizes.append(st.size)
        return sizes

    sizes = bed.run(work())
    assert sizes == [4096 * (n + 1) for n in range(1, 5)]


# -- multiple servers ----------------------------------------------------------


def test_two_servers_are_independent_namespaces():
    """Client i mounts server i % M: namespaces are per-server."""
    bed = SharedNfsTestbed(nclients=4, nservers=2)
    a0, a1, a2, _a3 = bed.clients    # a0, a2 -> server 0; a1, a3 -> server 1

    def work():
        yield from a0.mkdir("/only-on-server0")
        names_same = yield from a2.readdir("/")
        names_other = yield from a1.readdir("/")
        return names_same, names_other

    names_same, names_other = bed.run(work())
    assert "only-on-server0" in names_same
    assert "only-on-server0" not in names_other
    bed.quiesce()


def test_per_server_message_and_callback_accounting():
    bed = SharedNfsTestbed(nclients=4, nservers=2)
    clients = bed.clients

    def work():
        for client in clients:
            yield from client.mkdir("/%s" % client.name)
        return None

    bed.run(work())
    by_server = bed.messages_by_server
    assert len(by_server) == 2
    assert all(count >= 2 for count in by_server)
    assert sum(by_server) == bed.total_messages
    assert bed.callbacks_by_server == [0, 0]


def test_parameter_validation():
    with pytest.raises(ValueError):
        SharedNfsTestbed(nservers=0)
