"""Transport endpoints over a :class:`~repro.net.link.Link`.

A :class:`DuplexTransport` binds a client endpoint and a server endpoint to
the two directions of a link and owns the traffic accounting: every message
that crosses it is tallied in a :class:`~repro.core.counters.MessageCounters`
(requests, replies, retransmissions, bytes).

The TCP-like mode delivers reliably and in order.  The UDP-like mode (NFS v2)
can drop messages with a configured probability; recovery is then the RPC
layer's retransmission timer, exactly as in Sun RPC over UDP.

:class:`ShardedTransport` is the same link model split at a shard boundary
for sharded runs (:mod:`repro.sim.shard`): the client endpoint and the
forward channel live on the client's shard, the server endpoint and the
backward channel on the server's shard, and every send crosses via
``Shard.post`` — which is where a message gets tagged with its destination
shard.  The transport layer *is* the shard boundary: everything above it
(RPC, NFS, the filesystem) runs unmodified on whichever shard it was placed
on.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.counters import CountersSnapshot, MessageCounters
from ..sim import Simulator, Store
from .link import GIGABIT_BPS, Link, _Channel
from .message import Message, REPLY, REQUEST

__all__ = ["Endpoint", "DuplexTransport", "ShardedTransport"]


def _tally(counters: MessageCounters, message: Message) -> None:
    """Count one outgoing message (shared by both transport flavours)."""
    if message.kind == REQUEST:
        if message.is_retransmission:
            counters.count_retransmission(message.op, message.size)
        else:
            counters.count_request(message.op, message.size)
    elif message.kind == REPLY:
        counters.count_reply(message.op, message.size)
    else:
        raise ValueError("unknown message kind: %r" % (message.kind,))


class Endpoint:
    """One side of a transport: an inbox of delivered messages."""

    __slots__ = ("sim", "name", "inbox")

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.inbox = Store(sim, name=name + ".inbox")


class DuplexTransport:
    """A reliable (or lossy) bidirectional message channel with accounting."""

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        counters: Optional[MessageCounters] = None,
        reliable: bool = True,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
        name: str = "transport",
    ):
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(
                "loss_rate must be within [0, 1], got %r" % (loss_rate,))
        if loss_rate and reliable:
            raise ValueError("a reliable transport cannot drop messages")
        self.sim = sim
        self.link = link
        self.counters = counters if counters is not None else MessageCounters()
        self.reliable = reliable
        self.loss_rate = loss_rate
        self.rng = rng if rng is not None else random.Random(0)
        self.client = Endpoint(sim, name + ".client")
        self.server = Endpoint(sim, name + ".server")

    # -- sending --------------------------------------------------------------

    def send_from_client(self, message: Message) -> None:
        """Inject ``message`` on the client->server direction."""
        self._count(message)
        sim = self.sim
        tracer = sim.tracer
        if tracer is not None:
            tracer.message("c2s", message)
        recorder = sim.recorder
        if recorder is not None:
            recorder.note_message("c2s", message)
        self._deliver(message, self.link.forward, self.server)

    def send_from_server(self, message: Message) -> None:
        """Inject ``message`` on the server->client direction."""
        self._count(message)
        sim = self.sim
        tracer = sim.tracer
        if tracer is not None:
            tracer.message("s2c", message)
        recorder = sim.recorder
        if recorder is not None:
            recorder.note_message("s2c", message)
        self._deliver(message, self.link.backward, self.client)

    # -- internals ------------------------------------------------------------

    def _count(self, message: Message) -> None:
        _tally(self.counters, message)

    def _deliver(self, message: Message, channel, destination: Endpoint) -> None:
        delay = channel.delivery_delay(message.size)
        sim = self.sim
        san = sim.san
        if san is not None:
            san.note_send(self, message)
        if not self.reliable and self.rng.random() < self.loss_rate:
            if san is not None:
                san.note_loss(self, message)
            return  # the bytes were spent; the message never arrives
        fault = sim.fault
        if fault is not None:
            verdict, extra = fault.filter_message(
                message, channel is self.link.forward)
            if verdict is not None:
                if verdict == "drop":
                    if san is not None:
                        san.note_fault_drop(self, message)
                    return  # lost in flight; bytes were spent
                if verdict == "delay":
                    delay += extra
                else:  # "duplicate": a second copy trails the first
                    if san is not None:
                        san.note_fault_duplicate(self, message)
                    sim._schedule_call1(
                        destination.inbox.put, message, delay + extra)
        if san is not None:
            san.note_scheduled(self, message)
        telemetry = sim.telemetry
        if telemetry is not None:
            # Progress signal for the zero-progress-stall watcher (T503).
            telemetry.count("net.delivered", 1.0)
        # Flat calendar record: no per-message closure allocation.
        sim._schedule_call1(destination.inbox.put, message, delay)


class _TransportHalf:
    """One side of a :class:`ShardedTransport`, living on its own shard.

    The half owns the endpoint traffic *arrives at the peer through* —
    i.e. the client half owns the forward (client->server) channel and
    sends toward the server's inbox port.  Each half tallies only the
    messages it sends, so the two halves' counters merge to what a
    single :class:`DuplexTransport` counters object would hold.
    """

    __slots__ = ("shard", "peer_shard", "peer_port", "channel", "counters",
                 "endpoint")

    def __init__(self, shard, peer_shard: int, peer_port: str,
                 channel: _Channel, endpoint_name: str):
        self.shard = shard
        self.peer_shard = peer_shard
        self.peer_port = peer_port
        self.channel = channel
        self.counters = MessageCounters()
        self.endpoint = Endpoint(shard.sim, endpoint_name)

    def send(self, message: Message) -> None:
        """Reserve the channel and post toward the peer's shard."""
        _tally(self.counters, message)
        delay = self.channel.delivery_delay(message.size)
        self.shard.post(self.peer_shard, self.peer_port, message, delay)


class ShardedTransport:
    """A :class:`DuplexTransport` split at a shard boundary.

    Layout: the client endpoint plus the forward channel live on
    ``client_shard``; the server endpoint plus the backward channel on
    ``server_shard``.  Sends go through :meth:`Shard.post
    <repro.sim.shard.Shard.post>`, tagging each message with its
    destination shard — the transport is exactly the cut the
    conservative window protocol synchronizes across.  Both shards may
    be the same object, in which case every post takes the co-located
    fast path and the transport behaves like a reliable
    :class:`DuplexTransport` on that shard's calendar.

    Only the reliable TCP-like mode exists here: the lossy UDP mode
    (and fault injection) mutate deliveries in flight, which the
    windowed protocol deliberately does not model.  Use the sequential
    kernel for loss/fault studies.

    The one-way latency must be at least the shards' lookahead —
    queueing and transmission only ever *add* delay, so enforcing it on
    the propagation floor guarantees no post can violate the
    conservative horizon.
    """

    __slots__ = ("name", "rtt", "client_half", "server_half")

    def __init__(self, client_shard, server_shard, rtt: float = 0.0002,
                 bandwidth: float = GIGABIT_BPS, name: str = "transport"):
        latency = rtt / 2.0
        for shard in (client_shard, server_shard):
            if latency < shard.lookahead:
                raise ValueError(
                    "one-way latency %g of %r is below shard %d's lookahead "
                    "%g; a sharded transport's propagation delay must cover "
                    "the window horizon" % (latency, name, shard.id,
                                            shard.lookahead))
        self.name = name
        self.rtt = rtt
        # Inbox ports: each half's endpoint is reachable from the peer
        # shard under a stable, transport-scoped port name.
        client_port = name + ".client.inbox"
        server_port = name + ".server.inbox"
        self.client_half = _TransportHalf(
            client_shard, server_shard.id, server_port,
            _Channel(client_shard.sim, latency, bandwidth), name + ".client")
        self.server_half = _TransportHalf(
            server_shard, client_shard.id, client_port,
            _Channel(server_shard.sim, latency, bandwidth), name + ".server")
        client_shard.bind(client_port, self.client_half.endpoint.inbox.put)
        server_shard.bind(server_port, self.server_half.endpoint.inbox.put)

    # -- DuplexTransport-compatible surface -----------------------------------

    @property
    def client(self) -> Endpoint:
        return self.client_half.endpoint

    @property
    def server(self) -> Endpoint:
        return self.server_half.endpoint

    def send_from_client(self, message: Message) -> None:
        """Inject ``message`` on the client->server direction."""
        self.client_half.send(message)

    def send_from_server(self, message: Message) -> None:
        """Inject ``message`` on the server->client direction."""
        self.server_half.send(message)

    def merged_counters(self) -> CountersSnapshot:
        """Both directions' accounting, as one DuplexTransport would see it."""
        return (self.client_half.counters.snapshot()
                + self.server_half.counters.snapshot())
