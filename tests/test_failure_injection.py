"""Failure injection: lossy transport, timeouts, races with removal."""

import pytest

from repro.core import make_stack
from repro.core.counters import MessageCounters
from repro.faults import FaultPlan, LossBurst
from repro.faults.injector import FaultInjector
from repro.fs import FileNotFound
from repro.net import (
    DuplexTransport,
    Link,
    RetransmitPolicy,
    RpcPeer,
    RpcTimeoutError,
)


def _inject(sim, transport, events, seed):
    """Attach and start an injector of ``events`` in the ``fault`` slot."""
    plan = FaultPlan(events=tuple(events), seed=seed)
    injector = sim.fault = FaultInjector(sim, plan, transport=transport)
    injector.start()
    return injector


def _lose_messages(sim, transport, loss_rate, seed):
    """Drop ``loss_rate`` of ``transport``'s messages the way ``repro
    faults`` does: a loss window of a fault plan in the ``fault`` slot.

    A window opens when its driver process first runs, so the simulator
    is run to the current instant here, before anything is sent.
    """
    _inject(sim, transport, [LossBurst(start=0.0, duration=1e6,
                                       loss_rate=loss_rate)], seed)
    sim.run(until=sim.now)


def _lossy_rpc_pair(sim, loss_rate, seed=1, timeout=0.02, retries=8):
    link = Link(sim, rtt=0.002)
    transport = DuplexTransport(sim, link, counters=MessageCounters(),
                                reliable=False)
    client = RpcPeer(
        sim, transport.client, transport.send_from_client,
        retransmit=RetransmitPolicy(timeout=timeout, max_retries=retries),
        name="client",
    )
    server = RpcPeer(sim, transport.server, transport.send_from_server,
                     name="server")

    def handler(message):
        return 32, {"status": "ok", "seq": message.body.get("seq")}
        yield  # pragma: no cover

    server.set_handler(handler)
    if loss_rate:
        _lose_messages(sim, transport, loss_rate, seed)
    return transport, client, server


def test_udp_loss_recovered_by_retransmission(sim):
    """NFS v2's regime: a lossy datagram transport under an RPC timer."""
    transport, client, server = _lossy_rpc_pair(sim, loss_rate=0.3)

    def calls():
        answers = []
        for seq in range(30):
            reply = yield from client.call("PING", seq=seq)
            answers.append(reply.body["seq"])
        return answers

    answers = sim.run_process(calls())
    assert answers == list(range(30))
    assert transport.counters.retransmissions > 0


def test_total_loss_exhausts_retries(sim):
    transport, client, _server = _lossy_rpc_pair(
        sim, loss_rate=1.0, retries=2,
    )

    def call():
        yield from client.call("VOID")

    with pytest.raises(RpcTimeoutError):
        sim.run_process(call())
    # initial send + (max_retries + 1) timer-driven resends, all counted
    assert transport.counters.requests == 4


def test_duplicate_replies_are_dropped(sim):
    """A late original reply after a same-xid retransmission must not
    confuse the pending-call table."""
    transport, client, server = _lossy_rpc_pair(
        sim, loss_rate=0.0, timeout=0.001,
    )

    def slow_handler(message):
        yield server.sim.timeout(0.01)    # slower than many timeouts
        return 8, {"status": "ok"}

    server.set_handler(slow_handler)

    def call():
        reply = yield from client.call("SLOW")
        return reply.body["status"]

    assert sim.run_process(call()) == "ok"
    sim.run()   # drain any stragglers; must not raise


def test_nfs_write_racing_unlink_is_harmless():
    """Async write-back may still be in flight when the file is removed;
    the client must absorb the server's ENOENT quietly."""
    stack = make_stack("nfsv3")
    c = stack.client

    def work():
        fd = yield from c.creat("/victim")
        yield from c.write(fd, 16 * 4096)
        # no close (which would force the flush): delete immediately
        yield from c.unlink("/victim")

    stack.run(work())
    stack.quiesce()   # must not raise


def test_commit_racing_unlink_is_harmless():
    stack = make_stack("nfsv3")
    c = stack.client

    def work():
        fd = yield from c.creat("/victim")
        yield from c.write(fd, 4 * 4096)
        yield from c.close(fd)
        yield from c.unlink("/victim")

    stack.run(work())
    stack.quiesce()


def test_stale_fd_operations_fail_cleanly():
    stack = make_stack("nfsv3")
    c = stack.client

    def work():
        fd = yield from c.creat("/f")
        yield from c.close(fd)
        yield from c.unlink("/f")
        try:
            yield from c.stat("/f")
        except FileNotFound:
            return "gone"
        return "still there"

    assert stack.run(work()) == "gone"


def test_high_rtt_with_retransmission_still_correct():
    """At 200 ms RTT the v3 client's 1.1 s timer may fire under load;
    results must stay correct regardless."""
    stack = make_stack("nfsv3")
    stack.set_rtt(0.200)
    c = stack.client

    def work():
        yield from c.mkdir("/d")
        fd = yield from c.creat("/d/f")
        yield from c.write(fd, 64 * 4096)
        yield from c.close(fd)
        st = yield from c.stat("/d/f")
        return st.size

    assert stack.run(work()) == 64 * 4096
    stack.quiesce()


def test_retransmissions_counted_separately(sim):
    transport, client, server = _lossy_rpc_pair(sim, loss_rate=0.3, seed=7,
                                                retries=14)

    def calls():
        for seq in range(10):
            yield from client.call("PING", seq=seq)

    sim.run_process(calls())
    counters = transport.counters
    assert counters.requests >= 10
    assert counters.retransmissions == counters.requests - 10


# -- the retransmission timer itself ---------------------------------------------


def test_retransmit_schedule_is_exponential():
    policy = RetransmitPolicy(timeout=1.0, backoff=2.0, max_retries=3)
    assert list(policy.schedule()) == [1.0, 2.0, 4.0, 8.0]


def test_retransmit_schedule_fixed_timer():
    policy = RetransmitPolicy(timeout=0.5, backoff=1.0, max_retries=2)
    assert list(policy.schedule()) == [0.5, 0.5, 0.5]


def test_retransmit_schedule_caps_at_max_timeout():
    policy = RetransmitPolicy(
        timeout=1.0, backoff=3.0, max_retries=4, max_timeout=5.0,
    )
    assert list(policy.schedule()) == [1.0, 3.0, 5.0, 5.0, 5.0]


@pytest.mark.parametrize("reset", [False, True], ids=["same-xid", "reset"])
def test_call_resends_on_the_schedule_until_it_gives_up(sim, reset):
    # Total loss: every timer fires, so the wire shows the whole schedule
    # [1, 3, 5, 5, 5] as resend times.
    policy = RetransmitPolicy(timeout=1.0, backoff=3.0, max_retries=4,
                              max_timeout=5.0, reset_connection=reset)
    transport = DuplexTransport(sim, Link(sim, rtt=0.002),
                                counters=MessageCounters(), reliable=False)
    _lose_messages(sim, transport, 1.0, seed=1)
    sent = []

    def send(message):
        sent.append((sim.now, message.xid, message.is_retransmission))
        transport.send_from_client(message)

    client = RpcPeer(sim, transport.client, send, retransmit=policy,
                     name="client")

    def call():
        try:
            yield from client.call("VOID")
        except RpcTimeoutError as exc:
            return sim.now, str(exc)

    raised_at, error = sim.run_process(call())
    assert raised_at == 19.0
    assert error.endswith("after 5 attempts")
    assert [when for when, _, _ in sent] == [0.0, 1.0, 4.0, 9.0, 14.0, 19.0]
    assert [resend for _, _, resend in sent] == [False] + [True] * 5
    # Xids come from a module-global counter: compare offsets.
    first = sent[0][1]
    offsets = [xid - first for _, xid, _ in sent]
    assert offsets == ([0, 1, 2, 3, 4, 5] if reset else [0] * 6)
    assert not client._pending
    assert transport.counters.requests == 6


def test_retransmit_policy_validates_parameters():
    with pytest.raises(ValueError):
        RetransmitPolicy(timeout=0.0)
    with pytest.raises(ValueError):
        RetransmitPolicy(timeout=1.0, backoff=0.5)
    with pytest.raises(ValueError):
        RetransmitPolicy(timeout=1.0, max_retries=-1)
    with pytest.raises(ValueError):
        RetransmitPolicy(timeout=2.0, max_timeout=1.0)


# -- duplicate-request cache under injected message faults -----------------------


def _injected_rpc_pair(sim, events, seed=3):
    transport, client, server = _lossy_rpc_pair(sim, loss_rate=0.0)
    executions = []

    def handler(message):
        executions.append(message.body.get("seq"))
        return 16, {"status": "ok", "seq": message.body.get("seq")}
        yield  # pragma: no cover

    server.set_handler(handler)
    injector = _inject(sim, transport, events, seed)
    return transport, client, server, injector, executions


def test_duplicate_faults_are_absorbed_by_duplicate_request_cache(sim):
    from repro.faults import DuplicateWindow

    transport, client, server, injector, executions = _injected_rpc_pair(
        sim, [DuplicateWindow(start=0.0, duration=10.0, probability=1.0)],
    )

    def calls():
        for seq in range(10):
            reply = yield from client.call("PING", seq=seq)
            assert reply.body["seq"] == seq

    sim.run_process(calls())
    sim.run()                       # let the duplicate copies arrive
    assert injector.counts.get("msg.duplicate", 0) > 0
    # Every request executed exactly once, in order; the duplicates were
    # answered from the cache (or dropped while the original executed).
    assert executions == list(range(10))
    assert server.retransmissions_seen > 0


def test_reordered_messages_still_match_by_xid(sim):
    from repro.faults import ReorderWindow

    transport, client, server, injector, executions = _injected_rpc_pair(
        sim,
        [ReorderWindow(start=0.0, duration=10.0, probability=0.5,
                       max_extra_delay=0.004)],
    )

    def calls():
        answers = []
        for seq in range(20):
            reply = yield from client.call("PING", seq=seq)
            answers.append(reply.body["seq"])
        return answers

    answers = sim.run_process(calls())
    sim.run()
    assert answers == list(range(20))
    assert injector.counts.get("msg.reorder", 0) > 0
    # Any timer-driven resend of a delayed request must have been served
    # from the duplicate-request cache, never re-executed.
    assert executions == list(range(20))
