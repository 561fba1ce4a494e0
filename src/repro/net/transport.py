"""Transport endpoints over a :class:`~repro.net.link.Link`.

A :class:`DuplexTransport` binds a client endpoint and a server endpoint to
the two directions of a link and owns the traffic accounting: every message
that crosses it is tallied in a :class:`~repro.core.counters.MessageCounters`
(requests, replies, retransmissions, bytes).

The TCP-like mode delivers reliably and in order.  The UDP-like mode (NFS v2)
can drop messages with a configured probability; recovery is then the RPC
layer's retransmission timer, exactly as in Sun RPC over UDP.
"""

from __future__ import annotations

import random
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
