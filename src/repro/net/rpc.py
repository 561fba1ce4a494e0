"""A Sun-RPC-like request/reply layer.

Both NFS ends are :class:`RpcPeer` objects.  A peer can

* issue calls (:meth:`RpcPeer.call`) — it assigns transaction ids, waits for
  the matching reply, and (when a retransmission policy is configured)
  re-sends on timeout with exponential backoff.  This models the Linux NFS
  client behavior the paper observed in Section 4.6: the client's RPC timer
  fires at high RTT even though the reply is already in transit, producing
  spurious retransmissions;
* serve calls — incoming requests are dispatched to a registered handler
  coroutine; a duplicate-request cache replays replies for retransmitted
  xids instead of re-executing them (standard NFS server behavior).

Server→client calls use the same machinery, which is how the Section-7
enhancements implement cache-invalidation callbacks and delegation recalls.

Each peer's dispatcher is one process that takes its inbox's messages by
the eager hand-off of :meth:`repro.sim.resources.Store.park`: a queued
message is taken at once, and on an empty inbox the process parks until
the put that delivers the next message resumes it with that message.
A request's body is the dict of :meth:`RpcPeer.call`'s keywords, which
the request message keeps rather than copies, and its size, which the
peers charge and the transport counts, is an attribute set when the
message is built, not a property.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Generator, Iterable, Optional

from ..sim import AnyOf, Event, Resource, Simulator
from .message import Message, REPLY, REQUEST
from .transport import Endpoint

__all__ = ["RetransmitPolicy", "RpcError", "RpcTimeoutError", "RpcPeer"]

Handler = Callable[[Message], Generator]


class RpcError(RuntimeError):
    """An RPC-level failure surfaced to the caller."""


class RpcTimeoutError(RpcError):
    """All retransmission attempts exhausted without a reply."""


class RetransmitPolicy:
    """Timeout/backoff schedule for a calling peer.

    The wait before attempt *n+1* is ``timeout * backoff**n`` (classic
    exponential backoff; ``backoff=1`` gives a fixed timer), optionally
    clamped to ``max_timeout`` — the Linux RPC major-timeout cap, which
    matters under the long fault windows of :mod:`repro.faults`.
    """

    def __init__(
        self,
        timeout: float,
        backoff: float = 2.0,
        max_retries: int = 5,
        reset_connection: bool = False,
        max_timeout: Optional[float] = None,
    ):
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if max_timeout is not None and max_timeout < timeout:
            raise ValueError("max_timeout must be >= timeout")
        self.timeout = timeout
        self.backoff = backoff
        self.max_retries = max_retries
        self.max_timeout = max_timeout
        # TCP-mount semantics: a timeout tears the connection down, so the
        # in-flight reply is lost and the retransmission starts a fresh
        # exchange (the Linux behavior behind Fig. 6a's divergence).
        self.reset_connection = reset_connection

    def schedule(self):
        """Yield successive wait intervals, one per transmission attempt."""
        wait = self.timeout
        cap = self.max_timeout
        for _attempt in range(self.max_retries + 1):
            yield wait
            wait *= self.backoff
            if cap is not None and wait > cap:
                wait = cap


class RpcPeer:
    """One end of an RPC association (see module docstring)."""

    DUPLICATE_CACHE_SIZE = 1024

    def __init__(
        self,
        sim: Simulator,
        endpoint: Endpoint,
        send: Callable[[Message], None],
        cpu: Optional[Resource] = None,
        per_message_cpu: float = 0.0,
        per_byte_cpu: float = 0.0,
        retransmit: Optional[RetransmitPolicy] = None,
        name: str = "rpc",
        track: str = "client",
    ):
        self.sim = sim
        self.endpoint = endpoint
        self._send = send
        self.track = track
        self.cpu = cpu
        self.per_message_cpu = per_message_cpu
        self.per_byte_cpu = per_byte_cpu
        self.retransmit = retransmit
        self.name = name
        self.handler: Optional[Handler] = None
        self._pending: Dict[int, Event] = {}
        self._duplicate_cache: "OrderedDict[int, Message]" = OrderedDict()
        self._in_progress: set = set()
        self.calls_issued = 0
        self.calls_served = 0
        self.retransmissions_seen = 0
        self._dispatcher = sim.spawn(self._dispatch_loop(), name=name + ".dispatch")

    def set_handler(self, handler: Handler) -> None:
        """Register the serving coroutine: ``handler(msg) -> (payload, body)``."""
        self.handler = handler

    # -- calling ----------------------------------------------------------------

    def call(
        self,
        op: str,
        payload_bytes: int = 0,
        header_bytes: int = 128,
        **body: Any,
    ) -> Generator[Event, Any, Message]:
        """Coroutine: send a request and return the matching reply message.

        With a retransmission policy, each attempt waits for the reply or
        its timer; the first wait is the policy's ``timeout``, and
        :meth:`RetransmitPolicy.schedule` supplies the backoff only once
        a timer has fired.  Every timer that fires sends the request again;
        the one after the last resend raises :class:`RpcTimeoutError`.
        """
        request = Message(
            op=op,
            kind=REQUEST,
            header_bytes=header_bytes,
            payload_bytes=payload_bytes,
            body=body,
        )
        self.calls_issued += 1
        sim = self.sim
        san = sim.san
        if san is not None:
            san.note_issued(self, request.xid)
        span = None
        tracer = sim.tracer
        if tracer is not None:
            span = tracer.begin_span(
                "rpc:" + op, cat="rpc", track=self.track,
                xid=request.xid, bytes=request.size,
            )
            request.span_id = span.id
        # The exchange in flight: the request, or its latest resend.
        current = request
        try:
            yield from self._charge(request.size)
            reply_event = Event(sim)
            self._pending[request.xid] = reply_event
            self._send(request)
            policy = self.retransmit
            if policy is None:
                reply = yield reply_event
                return reply
            wait = policy.timeout
            schedule = None
            while True:
                timer = sim.lane_timeout(wait)
                winner, reply = yield AnyOf(sim, [reply_event, timer])
                if winner is reply_event:
                    if current is not request:
                        # The exchange was retransmitted: a non-idempotent
                        # op may have already executed once before its
                        # reply was lost, so callers must apply replay
                        # (retry) semantics to error statuses.
                        reply.is_retransmission = True
                    return reply
                # Timer fired first: retransmit.
                reset = policy.reset_connection
                if reset:
                    # The connection reset loses the in-flight reply:
                    # abandon the old xid and start a fresh exchange.
                    # Undelivered bytes of the old connection vanish with
                    # it, so an in-flight copy of the request must never
                    # reach (and re-execute on) the server.
                    current.cancelled = True
                    self._pending.pop(current.xid, None)
                current = Message(
                    op=request.op,
                    kind=REQUEST,
                    xid=None if reset else request.xid,
                    header_bytes=request.header_bytes,
                    payload_bytes=request.payload_bytes,
                    body=request.body,
                    is_retransmission=True,
                    span_id=request.span_id,
                )
                if reset:
                    reply_event = Event(sim)
                    self._pending[current.xid] = reply_event
                    if san is not None:
                        san.note_issued(self, current.xid)
                yield from self._charge(current.size)
                self._send(current)
                if schedule is None:
                    schedule = policy.schedule()
                    next(schedule)  # the first wait, already spent
                wait = next(schedule, None)
                if wait is None:
                    raise RpcTimeoutError(
                        "%s: no reply to %s xid=%d after %d attempts"
                        % (self.name, request.op, request.xid,
                           policy.max_retries + 1)
                    )
        finally:
            self._pending.pop(current.xid, None)
            if span is not None:
                tracer.end_span(span)

    # -- serving ----------------------------------------------------------------

    def _dispatch_loop(self) -> Generator:
        # The eager inbox hand-off: a queued message is taken at once, and
        # on an empty inbox the loop parks itself; the put that delivers
        # the next message resumes it with that message.  No Store.get
        # generator per message.
        inbox = self.endpoint.inbox
        while True:
            message = inbox.get_nowait()
            if message is None:
                message = yield inbox.park()
            if message.kind == REPLY:
                self._complete_call(message)
            else:
                self.sim.spawn(
                    self._serve(message), name=self.name + ".serve." + message.op
                )

    def _complete_call(self, message: Message) -> None:
        pending = self._pending.pop(message.xid, None)
        if pending is not None:
            pending.trigger(message)
        else:  # a duplicate reply for a retransmitted call: dropped
            san = self.sim.san
            if san is not None:
                san.note_orphan_reply(self, message.xid)

    def _serve(self, message: Message) -> Generator:
        span = None
        tracer = self.sim.tracer
        if tracer is not None:
            span = tracer.begin_span(
                "serve:" + message.op, cat="rpc", track=self.track,
                parent=message.span_id or None, xid=message.xid,
            )
        try:
            san = self.sim.san
            if san is not None:
                san.note_request(self, message)
            if message.cancelled:
                # The connection that carried it was torn down in flight.
                if san is not None:
                    san.note_request_cancelled(self, message)
                return
            yield from self._charge(message.size)
            cached = self._duplicate_cache.get(message.xid)
            if cached is not None:
                # Retransmitted request: replay the reply without re-executing.
                self.retransmissions_seen += 1
                if san is not None:
                    san.note_request_replayed(self, message)
                yield from self._charge(cached.size)
                self._send(cached)
                return
            if message.xid in self._in_progress:
                # Retransmission of a call still executing: drop it — the
                # original execution's reply will satisfy the caller.
                self.retransmissions_seen += 1
                if san is not None:
                    san.note_request_dropped_in_progress(self, message)
                return
            if self.handler is None:
                raise RpcError("%s received a call but has no handler" % (self.name,))
            self._in_progress.add(message.xid)
            try:
                payload_bytes, body = yield from self.handler(message)
            finally:
                self._in_progress.discard(message.xid)
            reply = message.make_reply(payload_bytes=payload_bytes, **body)
            self.calls_served += 1
            if san is not None:
                san.note_request_served(self, message)
            self._remember_reply(message.xid, reply)
            yield from self._charge(reply.size)
            self._send(reply)
        finally:
            if span is not None:
                tracer.end_span(span)

    def _remember_reply(self, xid: int, reply: Message) -> None:
        self._duplicate_cache[xid] = reply
        while len(self._duplicate_cache) > self.DUPLICATE_CACHE_SIZE:
            self._duplicate_cache.popitem(last=False)

    def session_reset(self) -> None:
        """Forget replay state across a transport-session boundary.

        Models what a server reboot (knfsd's duplicate-request cache
        lives in memory) or an iSCSI re-login (a fresh session starts a
        new command sequence) does to the serving side; calls already
        executing keep running.
        """
        self._duplicate_cache.clear()

    # -- CPU accounting -----------------------------------------------------------

    def _charge(self, size: int) -> Iterable[Any]:
        """Charge one message's CPU; an eager call, ``yield from`` the result."""
        if self.cpu is not None:
            cost = self.per_message_cpu + self.per_byte_cpu * size
            if cost > 0:
                return self.cpu.use(cost)
        return ()
