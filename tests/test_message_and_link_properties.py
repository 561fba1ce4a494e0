"""Property tests for messages, links, and counting invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.counters import MessageCounters
from repro.net import DuplexTransport, Link, Message, REPLY
from repro.sim import Simulator

from .test_failure_injection import _lose_messages


def test_message_xids_unique():
    xids = {Message(op="X").xid for _ in range(1000)}
    assert len(xids) == 1000


def test_reply_pairs_with_request():
    request = Message(op="READ", payload_bytes=0)
    reply = request.make_reply(payload_bytes=4096, status="ok")
    assert reply.xid == request.xid
    assert reply.kind == REPLY
    assert reply.body["status"] == "ok"
    assert reply.size == reply.header_bytes + 4096


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=1_000_000),
                      min_size=1, max_size=40),
       bandwidth=st.sampled_from([1e6, 1e7, 125e6]),
       latency=st.floats(min_value=0.0, max_value=0.1))
def test_link_delays_monotone_and_conserving(sizes, bandwidth, latency):
    """Arrival order equals injection order, and total channel time is
    exactly the serial transmission time of all bytes."""
    sim = Simulator()
    link = Link(sim, rtt=2 * latency, bandwidth=bandwidth)
    arrivals = []
    for size in sizes:
        arrivals.append(link.forward.delivery_delay(size))
    assert arrivals == sorted(arrivals)
    last_departure = arrivals[-1] - latency
    assert abs(last_departure - sum(sizes) / bandwidth) < 1e-9
    assert link.total_bytes == sum(sizes)


@settings(max_examples=40, deadline=None)
@given(events=st.lists(
    st.tuples(st.sampled_from(["req", "reply", "retrans"]),
              st.integers(min_value=0, max_value=10_000)),
    max_size=100,
))
def test_counter_invariants(events):
    """messages == requests; retransmissions <= requests; bytes add up."""
    counters = MessageCounters()
    sent = received = 0
    for kind, size in events:
        if kind == "req":
            counters.count_request("OP", size)
            sent += size
        elif kind == "reply":
            counters.count_reply("OP", size)
            received += size
        else:
            counters.count_retransmission("OP", size)
            sent += size
    assert counters.messages == counters.requests
    assert counters.retransmissions <= counters.requests
    assert counters.bytes_sent == sent
    assert counters.bytes_received == received
    snap = counters.snapshot()
    assert (snap - snap).messages == 0


@settings(max_examples=20, deadline=None)
@given(loss=st.floats(min_value=0.0, max_value=0.9),
       n=st.integers(min_value=1, max_value=50))
def test_lossy_transport_counts_all_sends(loss, n):
    """Counting happens at injection: drops never lose accounting."""
    sim = Simulator()
    transport = DuplexTransport(sim, Link(sim, rtt=0.001),
                                counters=MessageCounters(), reliable=False)
    _lose_messages(sim, transport, loss, seed=0)
    for _ in range(n):
        transport.send_from_client(Message(op="PING"))
    sim.run()
    assert transport.counters.requests == n
    assert len(transport.server.inbox) <= n
