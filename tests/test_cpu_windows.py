"""The CPU-utilization windows of Tables 9/10.

A host's vmstat window is its CPU's ``ResourceStats`` window:
``StorageStack.reset_cpu_windows()`` restarts ``cpu.stats`` on both
hosts, and ``Host.cpu_utilization()`` reads it.  The workloads reset the
windows after their unmeasured setup, so ``server_cpu``/``client_cpu``
cover the measured phase only.  The figures below pin both columns to
the last bit on reduced runs of the three workloads that report them.
"""

import pytest

from repro.core.comparison import make_stack
from repro.core.params import MB, CacheParams, TestbedParams
from repro.workloads.postmark import PostMark
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.tpch import TpchWorkload

_PARAMS = TestbedParams(cache=CacheParams(client_cache_bytes=2 * MB,
                                          server_cache_bytes=3 * MB))

_WORKLOADS = {
    "tpcc": lambda kind: TpccWorkload(kind, transactions=100, table_mb=1,
                                      ntables=4, params=_PARAMS),
    "postmark": lambda kind: PostMark(kind, file_count=60, transactions=300),
    "tpch": lambda kind: TpchWorkload(kind, queries=2, database_mb=4,
                                      params=_PARAMS),
}

# (workload, stack) -> (server_cpu, client_cpu) as float.hex(), recorded
# when the windows were kept by a separate busy-time tracker per CPU.
_EXPECTED = {
    ("tpcc", "nfsv3"): ("0x1.98ec7bdd260bep-3", "0x1.bc6c73ba7e649p-1"),
    ("tpcc", "iscsi"): ("0x1.196b546fcb599p-4", "0x1.d3564c5014f70p-1"),
    ("postmark", "nfsv3"): ("0x1.1a6dc8789777fp-2", "0x1.690a4649e4a9fp-5"),
    ("postmark", "iscsi"): ("0x1.71c2a32225a88p-9", "0x1.c04421276e4c5p-1"),
    ("tpch", "nfsv3"): ("0x1.604b24794ba18p-4", "0x1.f62406450ca5ap-3"),
    ("tpch", "iscsi"): ("0x1.817210cc4a51ap-6", "0x1.094571a12f325p-2"),
}


@pytest.mark.parametrize("workload, kind", sorted(_EXPECTED))
def test_cpu_windows_match_recorded_figures(workload, kind):
    result = _WORKLOADS[workload](kind).run()
    assert (result.server_cpu.hex(),
            result.client_cpu.hex()) == _EXPECTED[workload, kind]


@pytest.mark.parametrize("kind", ["nfsv3", "iscsi"])
def test_cpu_window_is_the_cpu_stats_window(kind):
    stack = make_stack(kind)
    client = stack.client

    def write_file(path):
        fd = yield from client.creat(path)
        for page in range(8):
            yield from client.pwrite(fd, 4096, page * 4096)
        yield from client.fsync(fd)
        yield from client.close(fd)

    hosts = (stack.client_host, stack.server_host)
    stack.run(write_file("/before"), name="before")
    stack.reset_cpu_windows()
    for host in hosts:
        # The window starts at the reset instant, with nothing counted.
        assert host.cpu.stats.acquisitions == 0
        assert host.cpu.stats.elapsed == 0.0
    stack.run(write_file("/during"), name="during")
    for host in hosts:
        assert host.cpu.stats.acquisitions > 0
        assert host.cpu_utilization() == min(1.0,
                                             host.cpu.stats.utilization())
