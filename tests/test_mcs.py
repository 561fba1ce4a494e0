"""MC/S: per-connection PDU scheduling and in-order command completion."""

import dataclasses

import pytest

from repro.core import make_stack
from repro.core.params import TestbedParams
from repro.faults.plan import resolve_plan
from repro.iscsi.mcs import MCS_POLICIES, McsSession
from repro.obs.bench import WORKLOADS
from repro.sim import Simulator


class _StubRpc:
    """A fake connection: replies after a fixed per-connection delay."""

    def __init__(self, sim, delay):
        self.sim = sim
        self.delay = delay
        self.calls = 0

    def call(self, op, payload_bytes=0, header_bytes=48, **body):
        self.calls += 1
        yield self.sim.timeout(self.delay)
        return ("reply", op, body.get("cmdsn"))


class _FlakyRpc:
    """A connection that loses its first command, then recovers —
    the shape of a TCP connection that died and was reinstated."""

    def __init__(self, sim):
        self.sim = sim
        self.calls = 0

    def call(self, op, payload_bytes=0, header_bytes=48, **body):
        self.calls += 1
        if self.calls == 1:
            yield self.sim.event()   # lost forever: never triggered
        yield self.sim.timeout(0.001)
        return ("reply", op, body.get("cmdsn"))


# -- construction --------------------------------------------------------------


def test_session_validates_inputs():
    sim = Simulator()
    with pytest.raises(ValueError):
        McsSession(sim, [])
    with pytest.raises(ValueError):
        McsSession(sim, [_StubRpc(sim, 0.001)], policy="weighted")
    assert MCS_POLICIES == ("rr", "qdepth")


def test_stack_rejects_zero_connections():
    params = TestbedParams()
    params = dataclasses.replace(
        params, iscsi=dataclasses.replace(params.iscsi, connections=0))
    with pytest.raises(ValueError):
        make_stack("iscsi", params=params)


# -- scheduling ----------------------------------------------------------------


def test_rr_policy_round_robins_by_cmdsn():
    sim = Simulator()
    rpcs = [_StubRpc(sim, 0.001) for _ in range(3)]
    session = McsSession(sim, rpcs, policy="rr")

    def driver():
        for _ in range(9):
            yield from session.call("READ")

    sim.run_process(driver(), name="driver")
    assert session.pdus_by_connection == [3, 3, 3]
    assert [rpc.calls for rpc in rpcs] == [3, 3, 3]


def test_qdepth_policy_picks_least_loaded_connection():
    sim = Simulator()
    # Connection 0 is slow: queue-depth scheduling must steer follow-up
    # commands to the idle fast connection instead of blind round-robin.
    rpcs = [_StubRpc(sim, 0.030), _StubRpc(sim, 0.001)]
    session = McsSession(sim, rpcs, policy="qdepth")

    def one(op):
        yield from session.call(op)

    def feeder():
        # Staggered arrivals: each command sees the live queue depths.
        for index in range(6):
            sim.spawn(one("CMD%d" % index), name="cmd%d" % index)
            yield sim.timeout(0.002)

    sim.run_process(feeder(), name="feeder")
    sim.run()
    # The first command ties to connection 0 (lowest index) and sticks
    # there; every later arrival finds connection 1 less loaded.
    assert session.pdus_by_connection == [1, 5]


# -- in-order completion -------------------------------------------------------


def test_out_of_order_responses_complete_in_cmdsn_order():
    sim = Simulator()
    # cmd 0 -> slow connection, cmd 1 -> fast one: the fast reply beats
    # the slow one and must be *held* until cmd 0 retires.
    rpcs = [_StubRpc(sim, 0.010), _StubRpc(sim, 0.001)]
    session = McsSession(sim, rpcs, policy="rr")
    order = []

    def one(tag):
        yield from session.call(tag)
        order.append((tag, sim.now))

    sim.spawn(one("first"), name="first")
    sim.spawn(one("second"), name="second")
    sim.run()
    assert session.arrival_order == [1, 0]       # responses out of order
    assert session.release_order == [0, 1]       # completions in order
    assert [tag for tag, _ in order] == ["first", "second"]
    assert order[0][1] == order[1][1]            # both released together
    assert session.completions_held == 1
    assert session.max_held == 1
    assert session.held_now == 0


def test_reset_releases_parked_completions_and_jumps_cursor():
    sim = Simulator()
    flaky = _FlakyRpc(sim)
    fast = _StubRpc(sim, 0.001)
    session = McsSession(sim, [flaky, fast], policy="rr")
    done = []

    def one(tag):
        yield from session.call(tag)
        done.append(tag)

    def supervisor():
        yield sim.timeout(0.050)
        # cmd 0 is abandoned on the dark wire, cmd 1 is parked behind
        # it: session reinstatement must release the parked completion.
        session.reset()
        yield sim.timeout(0.010)
        yield from session.call("post-reset")
        done.append("post-reset")

    sim.spawn(one("lost"), name="lost")
    sim.spawn(one("parked"), name="parked")
    sim.run_process(supervisor(), name="supervisor")
    assert done == ["parked", "post-reset"]
    assert session.session_resets == 1
    # The cursor jumped past the abandoned CmdSN: the post-reset command
    # was not held hostage.
    assert session.held_now == 0


# -- the wired stack under fault plans -----------------------------------------


def _mcs_params(connections, policy="rr"):
    params = TestbedParams()
    return dataclasses.replace(
        params, iscsi=dataclasses.replace(
            params.iscsi, connections=connections, mcs_policy=policy))


def _drive_file_work(stack, nbytes=256 * 1024):
    def work():
        fd = yield from stack.client.creat("/mcs")
        yield from stack.client.pwrite(fd, nbytes, 0)
        yield from stack.client.fsync(fd)
        yield from stack.client.pread(fd, nbytes, 0)
        yield from stack.client.close(fd)
        return True

    assert stack.run(work())
    stack.quiesce()


@pytest.mark.parametrize("plan_name", ["reorder10", "loss10"])
def test_mcs_stays_in_order_under_faults(plan_name):
    stack = make_stack("iscsi", params=_mcs_params(4),
                       fault_plan=resolve_plan(plan_name))
    _drive_file_work(stack)
    session = stack.session
    assert session is not None and session.nconnections == 4
    assert session.commands_issued == session.commands_completed
    assert sum(session.pdus_by_connection) == session.commands_issued
    # The protocol guarantee: whatever the wire did, completions left
    # the session in strict CmdSN order.
    assert session.release_order == sorted(session.release_order)
    assert session.held_now == 0
    # Round-robin really used more than one connection.
    assert sum(1 for count in session.pdus_by_connection if count) > 1


def test_mcs_single_connection_path_is_bypassed():
    stack = make_stack("iscsi")
    assert stack.session is None
    assert stack.mcs_transports == []
    assert len(stack.target.connections) == 1


def test_mcs_connections_share_one_target():
    stack = make_stack("iscsi", params=_mcs_params(3, policy="qdepth"))
    assert len(stack.target.connections) == 3
    assert len(stack.mcs_transports) == 2
    _drive_file_work(stack)
    session = stack.session
    assert session.commands_issued == session.commands_completed
    assert session.release_order == sorted(session.release_order)
    # All connections dispatch into the one target (shared volume).
    assert stack.target.commands_served >= session.commands_issued


def test_rpc_peers_cover_every_connection():
    # Each connection's initiator peer, then its target peer; the RPC
    # telemetry series sum over all of them.
    stack = make_stack("iscsi", params=_mcs_params(4), telemetry=True)
    stack.run(WORKLOADS["randwrite"](stack.client), name="randwrite")
    stack.quiesce()
    peers = stack.rpc_peers()
    assert len(peers) == 8
    assert peers[0] is stack.initiator.rpc
    callers = [peer for peer in peers if peer.track == "client"]
    assert callers == peers[0::2] == stack.session.rpcs
    issued = stack.session.commands_issued
    assert sum(peer.calls_issued for peer in callers) == issued
    assert stack.initiator.rpc.calls_issued < issued
    probes = {name: probe for name, probe, _kind, _scale
              in stack.telemetry._probes}
    assert probes["client.rpc.calls_s"]() == issued
    assert probes["server.rpc.served_s"]() == sum(
        peer.calls_served for peer in peers[1::2])


class _ScriptedRpc:
    """A connection whose reply delay is scripted per CmdSN; ``None``
    means the reply died with the old session and never arrives."""

    def __init__(self, sim, delays):
        self.sim = sim
        self.delays = delays

    def call(self, op, payload_bytes=0, header_bytes=48, **body):
        delay = self.delays[body["cmdsn"]]
        if delay is None:
            yield self.sim.event()   # lost forever: never triggered
        yield self.sim.timeout(delay)
        return ("reply", op, body["cmdsn"])


def test_late_pre_reset_release_keeps_post_reset_commands_in_order():
    sim = Simulator()
    # CmdSN 0 and 2 die with the old session; CmdSN 1 answers and parks
    # behind 0.  After the reset, CmdSN 3 answers after CmdSN 4.
    rpc = _ScriptedRpc(sim, {0: None, 1: 0.001, 2: None,
                             3: 0.010, 4: 0.001})
    session = McsSession(sim, [rpc])
    done = []

    def one(tag):
        yield from session.call(tag)
        done.append(tag)

    def supervisor():
        yield sim.timeout(0.050)
        # The parked CmdSN 1 is released by the reset and retires after
        # it: that late release must not pull the completion cursor back
        # below the first post-reset CmdSN, or every later command waits
        # behind CmdSN 2, which will never answer.
        session.reset()
        yield sim.timeout(0.010)
        sim.spawn(one("post-slow"), name="post-slow")
        sim.spawn(one("post-fast"), name="post-fast")

    for tag in ("lost-0", "parked", "lost-2"):
        sim.spawn(one(tag), name=tag)
    sim.run_process(supervisor(), name="supervisor")
    sim.run()
    assert done == ["parked", "post-slow", "post-fast"]
    assert session.arrival_order == [1, 4, 3]
    assert session.release_order == [1, 3, 4]
    assert session.held_now == 0
