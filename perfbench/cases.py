"""The benchmark's workloads and one observed run of each.

Each workload is built through the simulator's public workload classes
with the benchmark seed passed to the constructor.  :func:`run_case`
drives one ``.run()`` and returns what the benchmark reports: host wall
time, a digest of every simulated output, per-phase host times, layer
counters read from public attributes afterwards, and (when traced) the
per-layer self times from :mod:`spans`.

Importing this module imports ``repro``; ``src/`` must be on the path.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from typing import Any, Callable, Dict, Iterator, Optional

import repro.workloads.postmark as postmark_module
import repro.workloads.tpcc as tpcc_module
from repro.core.comparison import StorageStack
from repro.core.params import CacheParams, TestbedParams
from repro.workloads import PostMark, TpccWorkload

from spans import LAYERS, ROOT, SpanRecorder, install_spans

__all__ = ["WORKLOADS", "run_case", "digest_of"]

MB = 1024 * 1024

# The OLTP database is 8 x 4 MB = 32 MB against 8 + 12 = 20 MB of client
# plus server cache: the default testbed's ratio (8 x 16 MB = 128 MB over
# 32 + 48 = 80 MB), scaled down so that one run takes seconds, not
# minutes.  The run stays uncached and starts cold, as in the paper.
OLTP_PARAMS = TestbedParams(cache=CacheParams(
    client_cache_bytes=8 * MB, server_cache_bytes=12 * MB))


def _oltp(kind: str) -> Callable[..., TpccWorkload]:
    def make(seed: int, **sizes: Any) -> TpccWorkload:
        options = dict(transactions=500, table_mb=4, ntables=8, workers=10,
                       params=OLTP_PARAMS)
        options.update(sizes)
        return TpccWorkload(kind, seed=seed, **options)
    return make


def _postmark(kind: str) -> Callable[..., PostMark]:
    def make(seed: int, **sizes: Any) -> PostMark:
        options = dict(file_count=300, transactions=1500)
        options.update(sizes)
        return PostMark(kind, seed=seed, **options)
    return make


#: name -> (make(seed, **size_overrides), workload module, measured phase)
WORKLOADS: Dict[str, tuple] = {
    "oltp-nfsv3": (_oltp("nfsv3"), tpcc_module, "tpcc"),
    "oltp-iscsi": (_oltp("iscsi"), tpcc_module, "tpcc"),
    "postmark-nfsv3": (_postmark("nfsv3"), postmark_module, "postmark"),
}


class _Probe:
    """Observes a run: the stack it builds, when, and its phases."""

    def __init__(self, measured_phase: str):
        self.measured_phase = measured_phase
        self.stack: Optional[StorageStack] = None
        self.ready: Optional[float] = None   # time.monotonic() after build
        self.phase_s: Dict[str, float] = defaultdict(float)
        self.measured_snapshot = None

    @contextmanager
    def installed(self, workload_module) -> Iterator["_Probe"]:
        make_stack = workload_module.make_stack
        stack_run = StorageStack.run

        def observed_make_stack(*args, **kwargs):
            stack = make_stack(*args, **kwargs)
            if self.stack is None:
                self.stack = stack
                self.ready = time.monotonic()
            return stack

        def observed_run(stack, coroutine, name="workload"):
            if name == self.measured_phase:
                self.measured_snapshot = stack.snapshot()
            start = time.perf_counter()
            try:
                return stack_run(stack, coroutine, name)
            finally:
                self.phase_s[name] += time.perf_counter() - start

        workload_module.make_stack = observed_make_stack
        StorageStack.run = observed_run
        try:
            yield self
        finally:
            StorageStack.run = stack_run
            workload_module.make_stack = make_stack


def kernel_events(stack: StorageStack) -> int:
    """Calendar records the kernel dispatched during the run."""
    sim = stack.sim
    return sim._sequence - len(sim._calendar)


def digest_of(result: Any, stack: StorageStack) -> Dict[str, Any]:
    """A digest of every simulated output of one run.

    Covers the result record, the stack's whole-run message counters
    (``by_op`` and the rest), the final simulated clock and the number of
    kernel events.  Floats are written with ``repr`` precision, so any
    change to a simulated output changes the digest.
    """
    record = {
        "result": asdict(result),
        "counters": asdict(stack.counters.snapshot()),
        "now": stack.sim.now,
        "events": kernel_events(stack),
    }
    text = json.dumps(record, sort_keys=True)
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "messages": record["result"]["messages"],
        "now": record["now"],
        "events": record["events"],
    }


def layer_counters(stack: StorageStack, measured_snapshot) -> Dict[str, float]:
    """Per-layer work counters, read from public attributes after a run."""
    counters = stack.counters
    measured = counters.delta(measured_snapshot)
    resources = stack.resources()
    nfs = stack.nfs_client
    pages = nfs._pages.stats if nfs is not None else None
    fs = stack.fs
    return {
        "sim.kernel.events": kernel_events(stack),
        "sim.resources.acquisitions": sum(r.stats.acquisitions for r in resources),
        "sim.resources.contended": sum(r.stats.contended for r in resources),
        "net.messages": measured.messages,
        "net.bytes": measured.total_bytes,
        "net.rpc.calls": sum(peer.calls_issued for peer in stack.rpc_peers()),
        "net.rpc.retransmissions": counters.retransmissions,
        "nfs.client.write_rpcs": counters.by_op.get("WRITE", 0) if nfs else 0,
        "nfs.client.page_hit_ratio": pages.hit_ratio if pages else 0.0,
        "nfs.server.ops": stack.server.ops_served if stack.server else 0,
        "iscsi.commands": (stack.initiator.commands_issued
                           if stack.initiator else 0),
        "fs.journal_commits": fs.journal.commits,
        "cache.block_hit_ratio": fs.cache.stats.hit_ratio,
        "cache.evictions": fs.cache.stats.evictions + (
            pages.evictions if pages else 0),
        "storage.disk_ios": sum(disk.stats.total_ops for disk in stack.raid.disks),
    }


def run_case(name: str, seed: int, traced: bool = False,
             **sizes: Any) -> Dict[str, Any]:
    """Run workload ``name`` once in this process and observe it."""
    make, workload_module, measured_phase = WORKLOADS[name]
    workload = make(seed, **sizes)
    probe = _Probe(measured_phase)
    rec = SpanRecorder()
    spans = install_spans(rec) if traced else nullcontext()
    with probe.installed(workload_module), spans:
        rec.start()
        started = time.monotonic()
        start = time.perf_counter()
        result = workload.run()
        wall_s = time.perf_counter() - start
        rec.stop()
    stack = probe.stack
    out: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "wall_s": wall_s,
        "started": started,
        "ready": probe.ready,
        "load_s": probe.phase_s[measured_phase + "-setup"],
        "run_s": probe.phase_s[measured_phase],
        "result_messages": result.messages,
        "output": digest_of(result, stack),
        "counters": layer_counters(stack, probe.measured_snapshot),
    }
    if traced:
        out["self_ns"] = {layer: rec.self_ns.get(layer, 0)
                          for layer in LAYERS + (ROOT,)}
        out["total_ns"] = rec.total_ns
        out["calls"] = {
            "nfs.client.syscalls": rec.calls["workloads", "nfs.client"],
            # The client syscall surface is NfsClient or, on iSCSI, the Vfs.
            "workloads.syscalls": (rec.calls["workloads", "nfs.client"]
                                   + rec.calls["workloads", "fs"]),
        }
    return out
