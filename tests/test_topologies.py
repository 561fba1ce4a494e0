"""Pinned outputs of the two multi-machine topologies.

The multi-client tests mostly compare runs with each other or counts
against a floor, so a wiring change that moved the shared testbed's
message counts in every configuration at once would still pass them.
This test pins the values themselves: ``tests/golden/topologies.json``
holds, for each run below, the file sizes, message and callback counts
and the final simulated clock.  It was captured before the paper
testbed and the shared testbed built their machines through the same
constructors, as was ``tests/golden/shared_namespace.txt`` (checked in
``tests/test_examples.py``); neither is regenerated to make a change
pass.
"""

from __future__ import annotations

import dataclasses
import json
import os

from repro.core.comparison import make_stack
from repro.core.multiclient import SharedNfsTestbed
from repro.core.params import TestbedParams
from repro.obs.bench import WORKLOADS

from .test_pnfs import _striped_workload

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _observe(bed, sizes=None):
    return {
        "sizes": sizes,
        "total_messages": bed.total_messages,
        "messages_by_server": bed.messages_by_server,
        "callbacks_by_server": bed.callbacks_by_server,
        "layouts_granted": bed.layouts_granted,
        "clock": bed.sim.now,
    }


def _phases():
    """One independent writer per client in one phase, then a full
    quiesce."""
    bed = SharedNfsTestbed(nclients=4, nservers=2)
    sizes = {}

    def make(index, client):
        def work():
            fd = yield from client.creat("/f%d" % index)
            yield from client.write(fd, (index + 1) * 4096)
            yield from client.close(fd)
            st = yield from client.stat("/f%d" % index)
            sizes[index] = st.size
            return None
        return work

    for index, client in enumerate(bed.clients):
        bed.add_workload(index, make(index, client))
    bed.run_phase()
    bed.quiesce()
    return _observe(bed, [list(pair) for pair in sorted(sizes.items())])


def _striped():
    bed = SharedNfsTestbed(nclients=3, nservers=2, striped=True)
    for index, client in enumerate(bed.clients):
        bed.add_workload(index, _striped_workload(client, "c%d" % index,
                                                  files=4))
    bed.run_phase()
    bed.quiesce()
    return _observe(bed)


def _callbacks():
    """A creates a file, B caches its attributes, A changes them: the
    nfs-enhanced server calls B back to invalidate."""
    bed = SharedNfsTestbed(nclients=2, kind="nfs-enhanced")
    a, b = bed.clients

    def create():
        fd = yield from a.creat("/f")
        yield from a.close(fd)
        return None

    def peek():
        yield from b.stat("/f")
        return None

    def mutate():
        yield from a.chmod("/f", 0o600)
        return None

    bed.add_workload(0, create, phase="create")
    bed.run_phase("create")
    bed.quiesce()
    bed.add_workload(1, peek, phase="peek")
    bed.run_phase("peek")
    bed.add_workload(0, mutate, phase="mutate")
    bed.run_phase("mutate")
    bed.quiesce()
    return _observe(bed)


def _mcs_randwrite():
    params = TestbedParams()
    params = dataclasses.replace(
        params, iscsi=dataclasses.replace(params.iscsi, connections=4))
    stack = make_stack("iscsi", params=params)
    snap = stack.snapshot()
    start = stack.now
    stack.run(WORKLOADS["randwrite"](stack.client), name="randwrite")
    elapsed = stack.now - start
    stack.quiesce()
    delta = stack.delta(snap)
    return {
        "messages": delta.messages,
        "bytes": delta.total_bytes,
        "completion_time_s": elapsed,
        "clock": stack.now,
        "pdus_by_connection": list(stack.session.pdus_by_connection),
        "completions_held": stack.session.completions_held,
    }


def topology_runs():
    """Every pinned run, keyed as in ``golden/topologies.json``."""
    return {
        "phases_flat": _phases(),
        "striped_3c2s": _striped(),
        "callbacks_enhanced": _callbacks(),
        "iscsi_mcs4_randwrite": _mcs_randwrite(),
    }


def test_topologies_match_golden():
    with open(os.path.join(GOLDEN, "topologies.json")) as handle:
        golden = json.load(handle)
    # A JSON round trip turns tuples into lists and keeps floats exact.
    assert json.loads(json.dumps(topology_runs())) == golden
