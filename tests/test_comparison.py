"""Integration tests: the comparison harness and cross-stack equivalence."""

from dataclasses import replace

import pytest

from repro.core import STACK_KINDS, SharedNfsTestbed, TestbedParams, make_stack
from repro.core.comparison import StorageStack
from repro.core.params import NfsParams

NFS_KINDS = [kind for kind in STACK_KINDS if kind != "iscsi"]


def test_all_kinds_construct_and_mount():
    for kind in STACK_KINDS:
        stack = make_stack(kind)
        assert stack.mounted


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        StorageStack("nfsv9")


def test_kind_specializes_nfs_version():
    assert make_stack("nfsv2").params.nfs.version == 2
    assert make_stack("nfsv3").params.nfs.version == 3
    assert make_stack("nfsv4").params.nfs.version == 4
    enhanced = make_stack("nfs-enhanced").params.nfs
    assert enhanced.consistent_metadata_cache
    assert enhanced.directory_delegation
    for kind in NFS_KINDS:
        assert make_stack(kind).params.nfs == NfsParams.for_kind(kind)
        assert SharedNfsTestbed(2, kind).params.nfs == NfsParams.for_kind(kind)


@pytest.mark.parametrize("kind, fields", [
    ("nfsv4", {"access_check_per_component": False, "rsize": 8192}),
    ("nfs-enhanced", {"writeback_delay": 0.5, "pages_per_flush_rpc": 1}),
])
def test_explicit_nfs_params_are_used_verbatim(kind, fields):
    # Each field equals its v3 default, which must not make it drop.
    nfs = replace(NfsParams.for_kind(kind), **fields)
    stack = StorageStack(kind, TestbedParams(nfs=nfs))
    assert stack.nfs_client.params == nfs


def test_nfs_params_of_another_version_rejected():
    v3 = NfsParams(access_check_per_component=False, rsize=8192)
    with pytest.raises(ValueError, match="nfsv4 .* version 4.* version 3"):
        StorageStack("nfsv4", TestbedParams(nfs=v3))


def test_iscsi_places_fs_at_client():
    iscsi = make_stack("iscsi")
    nfs = make_stack("nfsv3")
    assert iscsi.fs.cpu is iscsi.client_host.cpu     # client-side ext3
    assert nfs.fs.cpu is nfs.server_host.cpu         # server-side ext3


def test_same_workload_same_result_every_stack(any_stack):
    """The paper's methodology: one workload, every stack, same semantics."""
    c = any_stack.client

    def work():
        yield from c.mkdir("/w")
        fd = yield from c.creat("/w/file")
        n = yield from c.write(fd, 12_345)
        yield from c.close(fd)
        st = yield from c.stat("/w/file")
        names = yield from c.readdir("/w")
        yield from c.chmod("/w/file", 0o600)
        ok = yield from c.access("/w/file")
        yield from c.rename("/w/file", "/w/file2")
        yield from c.unlink("/w/file2")
        yield from c.rmdir("/w")
        return n, st.size, names, ok

    assert any_stack.run(work()) == (12_345, 12_345, ["file"], True)
    any_stack.quiesce()


def test_messages_accumulate_and_snapshot(any_stack):
    c = any_stack.client
    snap = any_stack.snapshot()

    def work():
        yield from c.mkdir("/x")

    any_stack.run(work())
    any_stack.quiesce()
    delta = any_stack.delta(snap)
    assert delta.messages >= 0
    assert delta.messages == any_stack.counters.messages - snap.messages


def test_make_cold_resets_caches(any_stack):
    c = any_stack.client

    def setup():
        fd = yield from c.creat("/f")
        yield from c.close(fd)
        yield from c.stat("/f")

    any_stack.run(setup())
    any_stack.make_cold()
    snap = any_stack.snapshot()

    def warm_stat():
        yield from c.stat("/f")

    any_stack.run(warm_stat())
    any_stack.quiesce()
    assert any_stack.delta(snap).messages >= 1   # nothing cached anymore


def test_set_rtt_slows_operations():
    times = {}
    for rtt in (0.0002, 0.050):
        stack = make_stack("nfsv3")
        stack.set_rtt(rtt)
        c = stack.client

        def work(c=c):
            yield from c.mkdir("/d")

        start = stack.now
        stack.run(work())
        times[rtt] = stack.now - start
    assert times[0.050] > times[0.0002] * 10


def test_cpu_windows_track_utilization():
    stack = make_stack("iscsi")
    c = stack.client

    def work():
        fd = yield from c.creat("/f")
        yield from c.write(fd, 1024 * 1024)
        yield from c.close(fd)

    stack.reset_cpu_windows()
    stack.run(work())
    assert 0.0 <= stack.client_host.cpu_utilization() <= 1.0
    assert 0.0 <= stack.server_host.cpu_utilization() <= 1.0


def test_deterministic_across_runs():
    """Identical configuration must yield identical traffic and timing."""
    results = []
    for _ in range(2):
        stack = make_stack("nfsv3")
        c = stack.client

        def work(c=c):
            yield from c.mkdir("/a")
            fd = yield from c.creat("/a/f")
            yield from c.write(fd, 40_000)
            yield from c.close(fd)

        stack.run(work())
        stack.quiesce()
        results.append((stack.now, stack.counters.requests,
                        stack.counters.bytes_sent))
    assert results[0] == results[1]


def test_custom_params_flow_through():
    params = TestbedParams()
    params = params.with_rtt(0.020)
    stack = make_stack("nfsv3", params)
    assert stack.link.rtt == 0.020
