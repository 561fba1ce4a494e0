"""Exporters for :class:`~repro.obs.tracer.Tracer` recordings.

Three output formats, matching the three observation tools of the paper:

* :func:`packet_trace_lines` — a JSONL packet trace, one message per line
  (the Ethereal capture).  Schema documented in the README's
  "Observability" section;
* :func:`op_summary` / :func:`format_op_summary` — a per-op table of
  message counts, bytes (:func:`op_drift`), and latency percentiles
  (``nfsstat`` plus the paper's Tables 2-4 raw material);
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` JSON format: load the file into ``chrome://tracing`` or
  https://ui.perfetto.dev to browse spans, messages, and (from a
  :class:`~repro.obs.telemetry.Telemetry` that rode along) utilization
  and queue-depth counters on a zoomable timeline.

Plus a textual renderer used by the CLI and the examples:
:func:`render_span_tree` (causal tree of one or more root spans).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .profile import format_table
from .telemetry import Telemetry
from .tracer import Span, Tracer

__all__ = [
    "packet_trace_lines",
    "write_packet_trace",
    "op_drift",
    "op_summary",
    "format_op_summary",
    "chrome_trace",
    "write_chrome_trace",
    "render_span_tree",
]

# Stable process ids for the three Chrome-trace tracks.
_TRACK_PIDS = {"client": 1, "server": 2, "wire": 3}


def _pid(track: str) -> int:
    return _TRACK_PIDS.get(track, 9)


# -- JSONL packet trace -------------------------------------------------------


def packet_trace_lines(tracer: Tracer) -> List[str]:
    """Render the message trace as JSONL (one JSON object per line).

    Each line has: ``t`` (simulated seconds), ``dir`` (``c2s``/``s2c``),
    ``op``, ``kind`` (``request``/``reply``), ``xid``, ``hdr`` and ``pay``
    byte counts, ``retrans`` (bool), and ``span`` (the causing span id,
    0 when the message was sent outside any traced span).
    """
    lines = []
    for msg in tracer.messages:
        lines.append(json.dumps({
            "t": round(msg.t, 9),
            "dir": msg.direction,
            "op": msg.op,
            "kind": msg.kind,
            "xid": msg.xid,
            "hdr": msg.header_bytes,
            "pay": msg.payload_bytes,
            "retrans": msg.retransmission,
            "span": msg.span_id,
        }, sort_keys=True))
    return lines


def write_packet_trace(tracer: Tracer, path: str) -> int:
    """Write the JSONL packet trace to ``path``; returns the line count."""
    lines = packet_trace_lines(tracer)
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


# -- per-op summary -----------------------------------------------------------


_OP_FIELDS = ("requests", "replies", "retransmits", "req_bytes",
              "rep_bytes")


def op_drift(tracer: Tracer) -> Dict[str, Dict[str, int]]:
    """Per-op message counters from a live tracer's packet trace.

    Returns ``{op: {requests, replies, retransmits, req_bytes,
    rep_bytes}}``: the rows of :func:`op_summary` and the raw material
    of ``repro explain``'s message-drift section (bench JSON documents
    carry only totals, so that section is live-run only).
    """
    ops: Dict[str, Dict[str, int]] = {}
    for msg in tracer.messages:
        entry = ops.setdefault(msg.op, {field: 0 for field in _OP_FIELDS})
        if msg.kind == "request":
            entry["requests"] += 1
            entry["req_bytes"] += msg.size
            if msg.retransmission:
                entry["retransmits"] += 1
        else:
            entry["replies"] += 1
            entry["rep_bytes"] += msg.size
    return ops


def op_summary(tracer: Tracer) -> Tuple[List[str], List[List[Any]]]:
    """Build the per-op summary table: ``(headers, rows)``.

    One row per protocol op seen on the wire: request/reply/retransmission
    counts, bytes in each direction (:func:`op_drift`), and — when the op
    has a matching ``rpc:<op>`` latency histogram — mean/p50/p95/p99
    round-trip times in milliseconds.
    """
    per_op = op_drift(tracer)
    headers = ["op", "reqs", "replies", "rexmit", "req B", "reply B",
               "mean ms", "p50 ms", "p95 ms", "p99 ms"]
    rows: List[List[Any]] = []
    for op in sorted(per_op):
        hist = tracer.histograms.get("rpc:" + op)
        if hist is None:
            hist = tracer.histograms.get("scsi:" + op)
        if hist is not None and hist.count:
            latency = ["%.3f" % (hist.mean * 1e3),
                       "%.3f" % (hist.percentile(0.50) * 1e3),
                       "%.3f" % (hist.percentile(0.95) * 1e3),
                       "%.3f" % (hist.percentile(0.99) * 1e3)]
        else:
            latency = ["-", "-", "-", "-"]
        rows.append([op] + [per_op[op][field] for field in _OP_FIELDS]
                    + latency)
    return headers, rows


def format_op_summary(tracer: Tracer) -> str:
    """The per-op summary as an aligned text table."""
    headers, rows = op_summary(tracer)
    if not rows:
        return "(no protocol messages recorded)"
    return format_table(headers, rows)


# -- Chrome trace_event -------------------------------------------------------


def chrome_trace(tracer: Tracer,
                 telemetry: Optional[Telemetry] = None) -> Dict[str, Any]:
    """Render the whole recording in Chrome ``trace_event`` format.

    Tracks (client/server/wire) map to processes, simulator processes to
    threads.  Spans become complete ("X") events, point events and
    messages become instants ("i").  Each ``telemetry`` series becomes a
    counter ("C") series on the track its name starts with (``net.*`` on
    the wire): one event per non-empty retained window, at the window's
    start, valued at the window mean (the window total for a pushed
    progress counter).  Timestamps are simulated microseconds.
    """
    events: List[Dict[str, Any]] = []
    for track, pid in sorted(_TRACK_PIDS.items(), key=lambda kv: kv[1]):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": track}})
    for tid, name in sorted(tracer.tid_names.items()):
        for pid in sorted({_pid(s.track) for s in tracer.spans
                           if s.tid == tid}):
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": name}})
    for span in tracer.spans:
        args = {str(k): v for k, v in span.args.items()}
        args["span_id"] = span.id
        if span.parent is not None:
            args["parent"] = span.parent
        events.append({
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": max(0.0, (span.end or span.start) - span.start) * 1e6,
            "pid": _pid(span.track),
            "tid": span.tid,
            "args": args,
        })
    for point in tracer.events:
        events.append({
            "name": point.name,
            "cat": point.cat,
            "ph": "i",
            "s": "p",
            "ts": point.t * 1e6,
            "pid": _pid(point.track),
            "tid": 0,
            "args": {str(k): v for k, v in point.args.items()},
        })
    for msg in tracer.messages:
        label = "%s %s" % (msg.op, "req" if msg.kind == "request" else "rep")
        if msg.retransmission:
            label += " (rexmit)"
        events.append({
            "name": label,
            "cat": "net",
            "ph": "i",
            "s": "t",
            "ts": msg.t * 1e6,
            "pid": _pid("wire"),
            "tid": 1 if msg.direction == "c2s" else 2,
            "args": {"xid": msg.xid, "bytes": msg.size,
                     "dir": msg.direction, "span": msg.span_id},
        })
    if tracer.messages:
        for tid, name in ((1, "client->server"), (2, "server->client")):
            events.append({"name": "thread_name", "ph": "M",
                           "pid": _pid("wire"), "tid": tid,
                           "args": {"name": name}})
    series = telemetry.series if telemetry is not None else {}
    for name in sorted(series):
        rollup = series[name]
        track = name.split(".", 1)[0]
        pid = _pid("wire" if track == "net" else track)
        progress = telemetry.tags.get(name) == "progress"
        for offset, count in enumerate(rollup.counts):
            if not count:
                continue
            total = rollup.sums[offset]
            events.append({
                "name": name,
                "ph": "C",
                "ts": (rollup.start + offset) * rollup.width * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {"value": round(total if progress
                                        else total / count, 6)},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str,
                       telemetry: Optional[Telemetry] = None) -> int:
    """Write the Chrome trace JSON to ``path``; returns the event count."""
    trace = chrome_trace(tracer, telemetry)
    with open(path, "w") as handle:
        json.dump(trace, handle)
    return len(trace["traceEvents"])


# -- textual renderers --------------------------------------------------------


def render_span_tree(tracer: Tracer, roots: Optional[Sequence[Span]] = None,
                     include_args: bool = True) -> str:
    """Render finished spans as an indented causal tree.

    ``roots`` defaults to every span without a recorded parent.  Each line
    shows track, name, duration, and (optionally) the span's arguments.
    """
    children = tracer.span_children()
    if roots is None:
        known = {span.id for span in tracer.spans}
        roots = [span for span in
                 sorted(tracer.spans, key=lambda s: (s.start, s.id))
                 if span.parent is None or span.parent not in known]
    lines: List[str] = []

    def walk(span: Span, depth: int) -> None:
        extra = ""
        if include_args and span.args:
            extra = "  " + " ".join(
                "%s=%s" % (k, v) for k, v in sorted(span.args.items()))
        lines.append("%9.3fms  %-6s %s%s (%.3fms)%s" % (
            span.start * 1e3, span.track, "  " * depth, span.name,
            span.duration * 1e3, extra))
        for child in children.get(span.id, []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)
