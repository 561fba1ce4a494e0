"""Transport endpoints over a :class:`~repro.net.link.Link`.

A :class:`DuplexTransport` binds a client endpoint and a server endpoint to
the two directions of a link and owns the traffic accounting: every message
that crosses it is tallied in a :class:`~repro.core.counters.MessageCounters`
(requests, replies, retransmissions, bytes).

The TCP-like mode delivers reliably and in order.  The UDP-like mode (NFS v2)
loses a message only when a fault plan drops it (a
:class:`~repro.faults.plan.LossBurst` window, a link flap or a server
crash, applied by the injector in the simulator's ``fault`` slot);
recovery is then the RPC layer's retransmission timer, exactly as in Sun
RPC over UDP.
"""

from __future__ import annotations

from typing import Optional

from ..core.counters import MessageCounters
from ..sim import Simulator, Store
from .link import Link
from .message import Message, REPLY, REQUEST

__all__ = ["Endpoint", "DuplexTransport"]


class Endpoint:
    """One side of a transport: an inbox of delivered messages."""

    __slots__ = ("sim", "name", "inbox")

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.inbox = Store(sim, name=name + ".inbox")


class DuplexTransport:
    """A bidirectional message channel, TCP-like or UDP-like, with accounting."""

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        counters: Optional[MessageCounters] = None,
        reliable: bool = True,
        name: str = "transport",
    ):
        self.sim = sim
        self.link = link
        self.counters = counters if counters is not None else MessageCounters()
        self.reliable = reliable
        self.client = Endpoint(sim, name + ".client")
        self.server = Endpoint(sim, name + ".server")

    # -- sending --------------------------------------------------------------

    def send_from_client(self, message: Message) -> None:
        """Inject ``message`` on the client->server direction."""
        self._count(message)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.message("c2s", message)
        self._deliver(message, self.link.forward, self.server)

    def send_from_server(self, message: Message) -> None:
        """Inject ``message`` on the server->client direction."""
        self._count(message)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.message("s2c", message)
        self._deliver(message, self.link.backward, self.client)

    # -- internals ------------------------------------------------------------

    def _count(self, message: Message) -> None:
        counters = self.counters
        if message.kind == REQUEST:
            if message.is_retransmission:
                counters.count_retransmission(message.op, message.size)
            else:
                counters.count_request(message.op, message.size)
        elif message.kind == REPLY:
            counters.count_reply(message.op, message.size)
        else:
            raise ValueError("unknown message kind: %r" % (message.kind,))

    def _deliver(self, message: Message, channel, destination: Endpoint) -> None:
        delay = channel.delivery_delay(message.size)
        sim = self.sim
        san = sim.san
        if san is not None:
            san.note_send(self, message)
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
