"""The tracer: simulated Ethereal + nfsstat in one object.

The paper's methodology is built on three observation tools — Ethereal
packet captures on the wire, ``nfsstat`` per-op counters at the protocol
layer, and ``vmstat`` utilization sampling on the hosts.  A
:class:`Tracer` plays the first two roles for a simulated run (the
vmstat role is :class:`~repro.obs.telemetry.Telemetry`'s sampler):

* **packet trace** — every protocol message crossing the transport is
  recorded with direction, op, kind, sizes, and retransmission flag
  (:class:`MessageEvent`);
* **causal spans** — each layer brackets its work in a :class:`Span`
  (syscall -> VFS -> NFS client/RPC or SCSI -> server -> RAID -> disk).
  Spans carry parent ids, so one syscall's fan-out across processes and
  hosts is reconstructable as a tree;
* **point events** — cache hits/misses, journal commits, and similar
  instantaneous facts (:class:`PointEvent`);
* **latency histograms** — every finished span feeds a fixed-bucket
  :class:`LatencyHistogram` keyed by span name (p50/p95/p99 per op).

A tracer is attached as the simulator's ``tracer`` slot, which is
``None`` on an untraced run.  Every hook site reads ``tracer =
self.sim.tracer`` and guards with ``if tracer is not None:`` (simlint
O301), so an untraced run executes the exact same event sequence as
before the tracer existed.

Causality rules
---------------
Span parentage is resolved per simulator *process*: each process keeps a
stack of open spans, and a new span's parent is the innermost open span
of the process that begins it.  Two explicit escape hatches cross process
boundaries:

* a spawned process may carry a ``trace_parent`` attribute (set by the
  spawner, e.g. the RAID fan-out) that seeds its stack's parent;
* a :class:`~repro.net.message.Message` carries ``span_id``, so the
  server-side ``serve`` span is parented to the client-side call span —
  causality across the wire, as Ethereal's request/reply matching.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, List, Optional

from ..sim import Simulator
from ..sim.stats import LatencyHistogram

__all__ = [
    "Span",
    "PointEvent",
    "MessageEvent",
    "LatencyHistogram",
    "Tracer",
]


class Span:
    """One timed, causally-linked interval of work in some layer."""

    __slots__ = ("id", "name", "cat", "track", "parent", "tid", "process",
                 "start", "end", "args", "proc_ref")

    def __init__(self, span_id: int, name: str, cat: str, track: str,
                 parent: Optional[int], tid: int, process: str,
                 start: float, args: Dict[str, Any]):
        self.id = span_id
        self.proc_ref: Any = None   # owning simulator process (internal)
        self.name = name
        self.cat = cat
        self.track = track          # "client" | "server" | "wire"
        self.parent = parent        # id of the enclosing span, or None
        self.tid = tid              # stable per-process lane for exporters
        self.process = process      # simulator process name
        self.start = start
        self.end: Optional[float] = None
        self.args = args

    @property
    def duration(self) -> float:
        """Elapsed simulated seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Span #%d %s [%s] %.6f..%s>" % (
            self.id, self.name, self.track, self.start,
            "open" if self.end is None else "%.6f" % self.end)


class PointEvent:
    """An instantaneous fact (cache hit, journal commit, ...)."""

    __slots__ = ("t", "name", "cat", "track", "args")

    def __init__(self, t: float, name: str, cat: str, track: str,
                 args: Dict[str, Any]):
        self.t = t
        self.name = name
        self.cat = cat
        self.track = track
        self.args = args


class MessageEvent:
    """One protocol message observed on the wire (an Ethereal row)."""

    __slots__ = ("t", "direction", "op", "kind", "header_bytes",
                 "payload_bytes", "xid", "retransmission", "span_id")

    def __init__(self, t: float, direction: str, op: str, kind: str,
                 header_bytes: int, payload_bytes: int, xid: int,
                 retransmission: bool, span_id: int):
        self.t = t
        self.direction = direction  # "c2s" | "s2c"
        self.op = op
        self.kind = kind            # "request" | "reply"
        self.header_bytes = header_bytes
        self.payload_bytes = payload_bytes
        self.xid = xid
        self.retransmission = retransmission
        self.span_id = span_id

    @property
    def size(self) -> int:
        """Total on-the-wire bytes of this message."""
        return self.header_bytes + self.payload_bytes


class Tracer:
    """The recording tracer (see module docstring for the data model)."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.spans: List[Span] = []          # finished spans, end order
        self.events: List[PointEvent] = []
        self.messages: List[MessageEvent] = []
        self.histograms: Dict[str, LatencyHistogram] = {}
        self._ids = itertools.count(1)
        self._stacks: Dict[Any, List[Span]] = {}    # process -> open spans
        self._tids: Dict[Any, int] = {}             # process -> lane id
        self.tid_names: Dict[int, str] = {0: "main"}

    # -- spans ---------------------------------------------------------------

    def begin_span(self, name: str, cat: str = "span", track: str = "client",
                   parent: Optional[int] = None, **args: Any) -> Span:
        """Open a span; parent defaults to the current process's innermost
        open span (or its ``trace_parent`` attribute when none is open)."""
        proc = self.sim._active_process
        stack = self._stacks.get(proc)
        if parent is None:
            if stack:
                parent = stack[-1].id
            elif proc is not None:
                parent = getattr(proc, "trace_parent", None)
        span = Span(
            next(self._ids), name, cat, track, parent,
            self._tid_for(proc), proc.name if proc is not None else "main",
            self.sim.now, args,
        )
        span.proc_ref = proc
        if stack is None:
            stack = self._stacks[proc] = []
        stack.append(span)
        return span

    def end_span(self, span: Optional[Span], **args: Any) -> None:
        """Close ``span``, record it, and feed its latency histogram."""
        if span is None or span.end is not None:
            return
        span.end = self.sim.now
        if args:
            span.args.update(args)
        stack = self._stacks.get(span.proc_ref)
        if stack is not None:
            # Spans close LIFO in the overwhelmingly common case.
            if stack and stack[-1] is span:
                stack.pop()
            elif span in stack:
                stack.remove(span)
            if not stack:
                self._stacks.pop(span.proc_ref, None)
        self.spans.append(span)
        hist = self.histograms.get(span.name)
        if hist is None:
            hist = self.histograms[span.name] = LatencyHistogram()
        hist.record(span.end - span.start)

    def current_span_id(self) -> Optional[int]:
        """Id of the active process's innermost open span (or ``None``).

        Used by layers that spawn concurrent sub-processes (RAID fan-out,
        write-back) to seed the children's ``trace_parent``.
        """
        proc = self.sim._active_process
        stack = self._stacks.get(proc)
        if stack:
            return stack[-1].id
        if proc is not None:
            return getattr(proc, "trace_parent", None)
        return None

    def wrap(self, name: str, gen: Generator, cat: str = "span",
             track: str = "client", **args: Any) -> Generator:
        """Coroutine: drive ``gen`` to completion under a span."""
        span = self.begin_span(name, cat=cat, track=track, **args)
        try:
            result = yield from gen
        finally:
            self.end_span(span)
        return result

    # -- point events / packet trace ------------------------------------------

    def instant(self, name: str, cat: str = "event", track: str = "client",
                **args: Any) -> None:
        """Record an instantaneous event at the current simulated time."""
        self.events.append(PointEvent(self.sim.now, name, cat, track, args))

    def message(self, direction: str, msg: Any) -> None:
        """Record one protocol message entering the wire (Ethereal row)."""
        self.messages.append(MessageEvent(
            self.sim.now, direction, msg.op, msg.kind,
            msg.header_bytes, msg.payload_bytes, msg.xid,
            msg.is_retransmission, msg.span_id,
        ))

    # -- queries ------------------------------------------------------------------

    def span_children(self) -> Dict[Optional[int], List[Span]]:
        """Map parent-id -> children (finished spans only), start-ordered."""
        children: Dict[Optional[int], List[Span]] = {}
        for span in sorted(self.spans, key=lambda s: (s.start, s.id)):
            children.setdefault(span.parent, []).append(span)
        return children

    def subtree(self, root: Span) -> List[Span]:
        """``root`` plus every finished descendant, preorder."""
        children = self.span_children()
        out: List[Span] = []

        def walk(span: Span) -> None:
            out.append(span)
            for child in children.get(span.id, []):
                walk(child)

        walk(root)
        return out

    def find_spans(self, name: str) -> List[Span]:
        """All finished spans with the given name, in end order."""
        return [span for span in self.spans if span.name == name]

    # -- internals ------------------------------------------------------------------

    def _tid_for(self, proc: Any) -> int:
        if proc is None:
            return 0
        tid = self._tids.get(proc)
        if tid is None:
            tid = self._tids[proc] = len(self._tids) + 1
            self.tid_names[tid] = getattr(proc, "name", "process")
        return tid
