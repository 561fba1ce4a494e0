"""Pinned outputs of the two multi-machine topologies.

The multi-client tests compare runs with each other (sharded against
flat, counts against a floor), so a wiring change that moved the shared
testbed's message counts in every configuration at once would still
pass them.  This test pins the values themselves:
``tests/golden/topologies.json`` holds, for each run below, the file
sizes, message and callback counts and the final simulated clock.  It
was captured before the paper testbed and the shared testbed built
their machines through the same constructors, as was
``tests/golden/shared_namespace.txt`` (checked in
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

from .test_multiclient import _drive_callbacks, _drive_phases
from .test_pnfs import _striped_workload

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _clock(bed):
    if bed.sharded is None:
        return bed.sim.now
    return [shard.sim.now for shard in bed.sharded.shards]


def _observe(bed, sizes=None):
    return {
        "sizes": sizes,
        "total_messages": bed.total_messages,
        "messages_by_server": bed.messages_by_server,
        "callbacks_by_server": bed.callbacks_by_server,
        "layouts_granted": bed.layouts_granted,
        "clock": _clock(bed),
    }


def _phases(shards):
    bed = SharedNfsTestbed(nclients=4, nservers=2, shards=shards)
    sizes = _drive_phases(bed)[0]
    return _observe(bed, [list(pair) for pair in sizes])


def _striped():
    bed = SharedNfsTestbed(nclients=3, nservers=2, striped=True)
    for index, client in enumerate(bed.clients):
        bed.add_workload(index, _striped_workload(client, "c%d" % index,
                                                  files=4))
    bed.run_phase()
    bed.quiesce()
    bed.close()
    return _observe(bed)


def _callbacks():
    bed = SharedNfsTestbed(nclients=2, kind="nfs-enhanced")
    _drive_callbacks(bed)
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
        "phases_flat": _phases(1),
        "phases_shards2": _phases(2),
        "phases_shards3": _phases(3),
        "striped_3c2s": _striped(),
        "callbacks_enhanced": _callbacks(),
        "iscsi_mcs4_randwrite": _mcs_randwrite(),
    }


def test_topologies_match_golden():
    with open(os.path.join(GOLDEN, "topologies.json")) as handle:
        golden = json.load(handle)
    # A JSON round trip turns tuples into lists and keeps floats exact.
    assert json.loads(json.dumps(topology_runs())) == golden
