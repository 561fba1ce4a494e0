"""The benchmark's own checks: digests, seeds, and per-layer accounting.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Most checks use tiny versions of the three workloads; one runs each
full-size workload at the default seed against reference.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run as bench_run  # noqa: E402
import spans  # noqa: E402
from cases import WORKLOADS, run_case  # noqa: E402
from spans import LAYERS, ROOT, GenSpan, SpanRecorder, install_spans  # noqa: E402

from repro.sim import Simulator  # noqa: E402

TINY = {
    "oltp-nfsv3": dict(transactions=20, table_mb=1, ntables=2),
    "oltp-iscsi": dict(transactions=20, table_mb=1, ntables=2),
    "postmark-nfsv3": dict(file_count=20, transactions=40),
}
NFS_WORKLOADS = ("oltp-nfsv3", "postmark-nfsv3")


@pytest.fixture(scope="module")
def tiny_runs():
    """(plain, traced) observations of each tiny workload at seed 1."""
    return {name: (run_case(name, 1, **sizes),
                   run_case(name, 1, traced=True, **sizes))
            for name, sizes in TINY.items()}


@pytest.fixture(scope="module")
def reference():
    with open(BENCH / "reference.json") as handle:
        return json.load(handle)


def test_workload_lists_agree():
    assert set(TINY) == set(WORKLOADS) == set(bench_run.WORKLOADS)


def test_traced_run_reproduces_plain_digest(tiny_runs):
    for plain, traced in tiny_runs.values():
        assert traced["output"] == plain["output"]


def test_self_times_sum_exactly_to_traced_total(tiny_runs):
    for _, traced in tiny_runs.values():
        self_ns = traced["self_ns"]
        assert set(self_ns) == set(LAYERS) | {ROOT}
        assert all(value >= 0 for value in self_ns.values())
        assert sum(self_ns.values()) == traced["total_ns"]


def test_measured_messages_equal_result_messages(tiny_runs):
    for plain, traced in tiny_runs.values():
        for run in (plain, traced):
            assert run["counters"]["net.messages"] == run["result_messages"] > 0


def test_nfs_layers_idle_on_iscsi(tiny_runs):
    _, traced = tiny_runs["oltp-iscsi"]
    assert traced["self_ns"]["nfs.client"] == 0
    assert traced["self_ns"]["nfs.server"] == 0
    assert traced["calls"]["nfs.client.syscalls"] == 0
    for name, value in traced["counters"].items():
        if name.startswith("nfs."):
            assert value == 0, name
    assert traced["self_ns"]["iscsi"] > 0
    assert traced["counters"]["iscsi.commands"] > 0


def test_iscsi_layer_idle_on_nfs(tiny_runs):
    for name in NFS_WORKLOADS:
        _, traced = tiny_runs[name]
        assert traced["self_ns"]["iscsi"] == 0, name
        assert traced["counters"]["iscsi.commands"] == 0, name
        assert traced["self_ns"]["nfs.server"] > 0, name
        assert traced["calls"]["nfs.client.syscalls"] > 0, name


def test_spawned_daemons_bill_their_own_layer(monkeypatch):
    sizes = TINY["oltp-nfsv3"]
    wrapped = run_case("oltp-nfsv3", 1, traced=True, **sizes)
    # Leave Simulator.spawn as it is: processes the kernel resumes
    # directly are then billed to sim.kernel.
    monkeypatch.setattr(spans, "_wrap_spawn", lambda spawn, rec: spawn)
    unwrapped = run_case("oltp-nfsv3", 1, traced=True, **sizes)
    assert wrapped["output"] == unwrapped["output"]
    assert wrapped["self_ns"]["nfs.client"] > 0
    assert wrapped["self_ns"]["net.rpc"] > 0

    def kernel_share(run):
        return run["self_ns"]["sim.kernel"] / run["total_ns"]

    assert kernel_share(wrapped) < kernel_share(unwrapped)


def test_reference_has_distinct_default_and_heldout_digests(reference):
    default, heldout = str(reference["default_seed"]), str(reference["heldout_seed"])
    assert default != heldout
    assert set(reference["workloads"]) == set(WORKLOADS)
    for digests in reference["workloads"].values():
        assert digests[default]["digest"] != digests[heldout]["digest"]


def test_seed_reaches_the_generator():
    for name, sizes in TINY.items():
        first = run_case(name, 1, **sizes)["output"]["digest"]
        second = run_case(name, 2, **sizes)["output"]["digest"]
        assert first != second, name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_matches_reference(name, reference):
    seed = reference["default_seed"]
    assert run_case(name, seed)["output"] == reference["workloads"][name][str(seed)]


def test_spans_are_removed_on_exit():
    spawn, run_process = Simulator.spawn, Simulator.run_process
    with install_spans(SpanRecorder()):
        assert Simulator.spawn is not spawn
        assert Simulator.run_process is not run_process
    assert Simulator.spawn is spawn
    assert Simulator.run_process is run_process


def test_genspan_passes_values_exceptions_and_returns():
    rec = SpanRecorder()

    def inner():
        got = yield "first"
        try:
            yield got
        except KeyError:
            return "caught"
        return "done"

    def outer(proxy):
        result = yield from proxy
        return result

    gen = outer(GenSpan(inner(), "fs", rec))
    assert gen.send(None) == "first"
    assert gen.send("echo") == "echo"
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))
    assert stop.value.value == "caught"
    rec.stop()
    assert rec.self_ns["fs"] > 0
    assert sum(rec.self_ns.values()) == rec.total_ns
