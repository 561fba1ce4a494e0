"""Unit tests for links, transports, and the RPC layer."""

import pytest

from repro.core.counters import MessageCounters
from repro.net import (
    DuplexTransport,
    Link,
    Message,
    REPLY,
    RetransmitPolicy,
    RpcPeer,
    RpcTimeoutError,
)

from .test_failure_injection import _lose_messages


# ---------------------------------------------------------------- link

def test_link_delivery_delay_includes_latency_and_tx(sim):
    link = Link(sim, rtt=0.010, bandwidth=1_000_000)
    delay = link.forward.delivery_delay(1000)
    assert delay == pytest.approx(0.005 + 0.001)


def test_link_serializes_transmissions(sim):
    link = Link(sim, rtt=0.0, bandwidth=1000)
    first = link.forward.delivery_delay(1000)    # 1 s of tx time
    second = link.forward.delivery_delay(1000)   # queued behind the first
    assert first == pytest.approx(1.0)
    assert second == pytest.approx(2.0)


def test_link_directions_independent(sim):
    link = Link(sim, rtt=0.0, bandwidth=1000)
    link.forward.delivery_delay(1000)
    assert link.backward.delivery_delay(1000) == pytest.approx(1.0)


def test_set_rtt(sim):
    link = Link(sim, rtt=0.010)
    link.set_rtt(0.090)
    assert link.forward.latency == pytest.approx(0.045)


# ---------------------------------------------------------------- transport

def _transport(sim, **kwargs):
    link = Link(sim, rtt=0.001)
    return DuplexTransport(sim, link, counters=MessageCounters(), **kwargs)


def test_transport_counts_requests_and_replies(sim):
    transport = _transport(sim)
    transport.send_from_client(Message(op="PING", payload_bytes=100))
    transport.send_from_server(Message(op="PING", kind=REPLY, payload_bytes=50))
    counters = transport.counters
    assert counters.requests == 1
    assert counters.replies == 1
    assert counters.messages == 1      # "messages" = requests only
    assert counters.bytes_sent == 228  # 128 header + 100 payload
    sim.run()


def test_transport_delivers_to_inbox(sim):
    transport = _transport(sim)
    transport.send_from_client(Message(op="HELLO"))

    def receiver():
        message = yield from transport.server.inbox.get()
        return message.op

    assert sim.run_process(receiver()) == "HELLO"


def test_lossy_transport_drops(sim):
    transport = DuplexTransport(sim, Link(sim, rtt=0.001), reliable=False)
    _lose_messages(sim, transport, 1.0, seed=1)
    transport.send_from_client(Message(op="LOST"))
    sim.run()
    assert len(transport.server.inbox) == 0
    assert transport.counters.requests == 1  # the bytes were still spent


# ---------------------------------------------------------------- rpc

def _rpc_pair(sim, retransmit=None):
    transport = _transport(sim)
    client = RpcPeer(sim, transport.client, transport.send_from_client,
                     retransmit=retransmit, name="client")
    server = RpcPeer(sim, transport.server, transport.send_from_server,
                     name="server")
    return transport, client, server


def test_rpc_roundtrip(sim):
    transport, client, server = _rpc_pair(sim)

    def handler(message):
        return 64, {"status": "ok", "echo": message.body["x"]}
        yield  # pragma: no cover

    server.set_handler(handler)

    def call():
        reply = yield from client.call("ECHO", x=7)
        return reply.body["echo"]

    assert sim.run_process(call()) == 7
    assert transport.counters.requests == 1
    assert transport.counters.replies == 1


def test_rpc_handler_can_do_work(sim):
    transport, client, server = _rpc_pair(sim)

    def handler(message):
        yield sim.timeout(0.5)
        return 0, {"status": "ok"}

    server.set_handler(handler)

    def call():
        yield from client.call("SLOW")
        return sim.now

    assert sim.run_process(call()) >= 0.5


def test_rpc_timeout_retransmits(sim):
    policy = RetransmitPolicy(timeout=0.010, backoff=2.0, max_retries=3)
    transport, client, server = _rpc_pair(sim, retransmit=policy)

    def handler(message):
        yield sim.timeout(0.025)  # slower than two timeouts
        return 0, {"status": "ok"}

    server.set_handler(handler)

    def call():
        yield from client.call("SLOW")

    sim.run_process(call())
    assert transport.counters.retransmissions >= 1


def test_rpc_duplicate_cache_replays(sim):
    policy = RetransmitPolicy(timeout=0.010, max_retries=5)
    transport, client, server = _rpc_pair(sim, retransmit=policy)
    executions = []

    def handler(message):
        executions.append(message.xid)
        yield sim.timeout(0.025)
        return 0, {"status": "ok"}

    server.set_handler(handler)

    def call():
        yield from client.call("ONCE")

    sim.run_process(call())
    # Same-xid retransmissions must not re-execute the handler.
    assert len(set(executions)) == len(executions)


def test_rpc_exhausted_retries_raise(sim):
    policy = RetransmitPolicy(timeout=0.001, max_retries=2)
    transport = DuplexTransport(sim, Link(sim, rtt=0.001), reliable=False)
    _lose_messages(sim, transport, 1.0, seed=3)
    client = RpcPeer(sim, transport.client, transport.send_from_client,
                     retransmit=policy)

    def call():
        yield from client.call("VOID")

    with pytest.raises(RpcTimeoutError):
        sim.run_process(call())


def test_rpc_reset_connection_uses_fresh_xid(sim):
    policy = RetransmitPolicy(timeout=0.010, max_retries=3,
                              reset_connection=True)
    transport, client, server = _rpc_pair(sim, retransmit=policy)
    seen = []

    def handler(message):
        seen.append(message.xid)
        yield sim.timeout(0.025)
        return 0, {"status": "ok"}

    server.set_handler(handler)

    def call():
        yield from client.call("RESET")

    sim.run_process(call())
    assert len(set(seen)) >= 2  # the retransmission carried a new xid
