"""``repro explain``: a differential diagnosis engine for paired runs.

The paper's contribution is not the numbers but the *explanation* of
them: Table 4's random-write gap is attributed to NFS's synchronous
per-page WRITE and meta-data/journal update traffic, by diffing two
packet captures of the same workload.  This module is that methodology
as a tool.  It takes two runs — NFS vs iSCSI, baseline vs candidate
bench documents, faulted vs clean, any two workload/stack/param combos —
and produces one structured, deterministic delta report:

* **completion-time decomposition** — the paired critical-path
  attribution of :class:`~repro.obs.profile.Profile`, per layer, plus an
  ``(unattributed)`` remainder term per side.  All delta arithmetic runs
  on integer nanoseconds, so the per-layer deltas sum *exactly* to the
  total completion-time delta (an invariant the tests assert), and the
  B-vs-A report is the exact negation of A-vs-B;
* **message drift per op** — request/reply/retransmission counts and
  bytes per RPC/SCSI op (live runs), with ops classified into data
  transfer vs meta-data/journal/control traffic — the paper's
  message-count argument, localized;
* **queueing deltas** — per-resource utilization, mean depth, and wait
  percentiles from :class:`~repro.sim.stats.ResourceStats`;
* **telemetry series deltas** — when both sides carried the streaming
  collector of :mod:`repro.obs.telemetry`;
* **blame** — everything above ranked by contribution into a top-N list
  with plain-English verdict lines.

Report producers: :func:`run_side` (live traced run) and
:func:`side_from_bench` (a ``BENCH_*.json`` case record) both yield the
same *side document* shape; :func:`explain_runs` diffs any two sides.
Renderers: :func:`format_explain` (text), :func:`format_explain_json`
(stable JSON — equal reports give equal bytes), and
:func:`render_explain_html` (self-contained HTML, the CI artifact).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from .bench import relative_change
from .dashboard import _escape
from .export import _OP_FIELDS, op_drift
from .profile import LAYER_ORDER

__all__ = [
    "REPORT_VERSION",
    "run_side",
    "side_from_bench",
    "explain_runs",
    "format_explain",
    "format_explain_json",
    "render_explain_html",
    "write_explain_html",
    "render_timeline_diff",
]

REPORT_VERSION = 1

# Ops that move file/block payload; everything else (GETATTR, LOOKUP,
# COMMIT, SCSI_SYNC, logins, callbacks, ...) is meta-data/journal/control
# traffic — the distinction the paper's Table 4 explanation turns on.
_DATA_OPS = frozenset({"READ", "WRITE", "SCSI_READ", "SCSI_WRITE"})

_RESOURCE_FIELDS = ("utilization", "mean_queue", "mean_wait_s",
                    "p95_wait_s", "acquisitions", "contended")


# -- side documents -----------------------------------------------------------


def side_from_bench(record: Dict[str, Any],
                    label: Optional[str] = None) -> Dict[str, Any]:
    """Build one comparison side from a ``BENCH_*.json`` case record.

    The side document is the engine's sole input shape; bench-derived
    sides omit the per-op drift (bench documents carry only totals) and
    carry telemetry only when the record does.  Optional record fields
    (bytes, retransmissions, attribution, resources) default to empty so
    trimmed documents still diff.
    """
    side: Dict[str, Any] = {
        "label": label if label is not None else record.get("stack", "?"),
        "workload": record.get("workload"),
        "stack": record.get("stack"),
        "completion_time_s": record["completion_time_s"],
        "messages": record["messages"],
        "bytes": record.get("bytes", 0),
        "retransmissions": record.get("retransmissions", 0),
        "attribution": record.get("attribution", {}),
        "resources": record.get("resources", {}),
    }
    if "__telemetry__" in record:
        side["telemetry"] = record["__telemetry__"]
    return side


def run_side(workload: str, kind: str, san: bool = False,
             telemetry: bool = False,
             label: Optional[str] = None) -> Dict[str, Any]:
    """Run one traced workload on one stack; return its side document.

    The live form of :func:`side_from_bench`: the same bench-record
    fields plus the per-op message drift from the packet trace (and the
    telemetry snapshot when ``telemetry=True``).
    """
    from .bench import run_case_stack

    record, stack = run_case_stack(workload, kind, san=san,
                                   telemetry=telemetry)
    side = side_from_bench(record, label=label if label is not None else kind)
    side["ops"] = op_drift(stack.tracer)
    return side


# -- the diff engine ----------------------------------------------------------


def _ns(seconds: float) -> int:
    """Seconds to integer nanoseconds (bench records round to 9 places)."""
    return int(round(seconds * 1e9))


def _layer_names(names: Any) -> List[str]:
    ordered = [name for name in LAYER_ORDER if name in names]
    ordered += sorted(name for name in names if name not in LAYER_ORDER)
    return ordered


def _ratio_text(low: Any, high: Any) -> str:
    if low:
        return "%.1fx" % (high / low)
    return "all" if high else "equal"


def _layer_verdict(entry: Dict[str, Any], total_ns: int) -> str:
    a_ms = entry["a_s"] * 1e3
    b_ms = entry["b_s"] * 1e3
    if total_ns and entry["share"] is not None:
        return ("%.0f%% of the %+.3f ms completion delta is %s time "
                "(%.3f -> %.3f ms)"
                % (100.0 * entry["share"], total_ns / 1e6, entry["layer"],
                   a_ms, b_ms))
    return ("%s time moved %+.3f ms (%.3f -> %.3f ms)"
            % (entry["layer"], entry["delta_ns"] / 1e6, a_ms, b_ms))


def _message_verdict(label_a: str, label_b: str, msgs_a: int, msgs_b: int,
                     ops: Optional[List[Dict[str, Any]]],
                     meta: Optional[Dict[str, int]]) -> str:
    if msgs_a >= msgs_b:
        heavy, light, high, low = label_a, label_b, msgs_a, msgs_b
    else:
        heavy, light, high, low = label_b, label_a, msgs_b, msgs_a
    head = ("%s sent %s the protocol messages of %s (%d vs %d)"
            % (heavy, _ratio_text(low, high), light, high, low))
    if not ops:
        return head
    drifts = sorted(ops, key=lambda e: (-abs(e["delta"]["requests"]),
                                        e["op"]))
    parts = ["%s %d -> %d" % (e["op"], e["a"]["requests"],
                              e["b"]["requests"])
             for e in drifts[:3] if e["delta"]["requests"]]
    if parts:
        head += ": " + ", ".join(parts)
    if meta is not None and meta["delta"]:
        head += ("; meta-data/journal message traffic %d -> %d"
                 % (meta["a"], meta["b"]))
    return head


def explain_runs(side_a: Dict[str, Any], side_b: Dict[str, Any],
                 top: int = 8) -> Dict[str, Any]:
    """Diff two side documents into one structured, deterministic report.

    Every delta field is ``b - a``, so swapping the sides negates every
    delta exactly (integer nanoseconds for times, plain integers for
    counts, IEEE negation for float deltas) and leaves the blame ranking
    order unchanged (symmetric scores).  The per-layer ``delta_ns``
    values — including the ``(unattributed)`` remainder — sum exactly to
    ``delta["completion_time_ns"]`` by construction.
    """
    label_a = side_a.get("label", "a")
    label_b = side_b.get("label", "b")
    a_ns = _ns(side_a["completion_time_s"])
    b_ns = _ns(side_b["completion_time_s"])
    delta_ns = b_ns - a_ns

    # Layers: exclusive-time deltas plus the unattributed remainder.
    attr_a = side_a.get("attribution", {})
    attr_b = side_b.get("attribution", {})
    layers: List[Dict[str, Any]] = []
    accounted_a = 0
    accounted_b = 0
    for name in _layer_names(set(attr_a) | set(attr_b)):
        la = _ns(attr_a.get(name, {}).get("exclusive_s", 0.0))
        lb = _ns(attr_b.get(name, {}).get("exclusive_s", 0.0))
        accounted_a += la
        accounted_b += lb
        layers.append(_layer_entry(name, la, lb, delta_ns))
    layers.append(_layer_entry("(unattributed)", a_ns - accounted_a,
                               b_ns - accounted_b, delta_ns))

    # Per-op message drift (live runs only) + meta/data aggregates.
    ops_a = side_a.get("ops")
    ops_b = side_b.get("ops")
    ops: Optional[List[Dict[str, Any]]] = None
    meta: Optional[Dict[str, int]] = None
    data: Optional[Dict[str, int]] = None
    if ops_a is not None and ops_b is not None:
        ops = []
        meta = {"a": 0, "b": 0}
        data = {"a": 0, "b": 0}
        for op in sorted(set(ops_a) | set(ops_b)):
            za = ops_a.get(op, {})
            zb = ops_b.get(op, {})
            a_fields = {field: int(za.get(field, 0)) for field in _OP_FIELDS}
            b_fields = {field: int(zb.get(field, 0)) for field in _OP_FIELDS}
            family = "data" if op in _DATA_OPS else "meta"
            ops.append({
                "op": op,
                "family": family,
                "a": a_fields,
                "b": b_fields,
                "delta": {field: b_fields[field] - a_fields[field]
                          for field in _OP_FIELDS},
                "requests_ratio": relative_change(a_fields["requests"],
                                                  b_fields["requests"]),
            })
            bucket = data if family == "data" else meta
            bucket["a"] += a_fields["requests"]
            bucket["b"] += b_fields["requests"]
        meta["delta"] = meta["b"] - meta["a"]
        data["delta"] = data["b"] - data["a"]

    # Per-resource queueing deltas.
    res_a = side_a.get("resources", {})
    res_b = side_b.get("resources", {})
    resources: List[Dict[str, Any]] = []
    for name in sorted(set(res_a) | set(res_b)):
        ra = res_a.get(name, {})
        rb = res_b.get(name, {})
        a_fields = {field: ra.get(field, 0) or 0
                    for field in _RESOURCE_FIELDS}
        b_fields = {field: rb.get(field, 0) or 0
                    for field in _RESOURCE_FIELDS}
        resources.append({
            "resource": name,
            "a": a_fields,
            "b": b_fields,
            "delta": {field: b_fields[field] - a_fields[field]
                      for field in _RESOURCE_FIELDS},
        })

    # Telemetry-rollup series deltas (both sides must carry a snapshot).
    telemetry = _telemetry_deltas(side_a.get("telemetry"),
                                  side_b.get("telemetry"))

    # Blame: rank everything by a symmetric contribution score.  Layers
    # score against the larger of (|total delta|, either completion
    # time); message entries against the larger message count — both
    # invariant under side swap, so A-vs-B and B-vs-A rank identically.
    msgs_a = side_a["messages"]
    msgs_b = side_b["messages"]
    rex_a = side_a.get("retransmissions", 0)
    rex_b = side_b.get("retransmissions", 0)
    denominator = max(abs(delta_ns), a_ns, b_ns, 1)
    candidates: List[Dict[str, Any]] = []
    for entry in layers:
        candidates.append({
            "kind": "layer",
            "name": entry["layer"],
            "score": abs(entry["delta_ns"]) / denominator,
            "verdict": _layer_verdict(entry, delta_ns),
        })
    if msgs_a != msgs_b:
        candidates.append({
            "kind": "messages",
            "name": "message-traffic",
            "score": abs(msgs_b - msgs_a) / max(msgs_a, msgs_b, 1),
            "verdict": _message_verdict(label_a, label_b, msgs_a, msgs_b,
                                        ops, meta),
        })
    if rex_a != rex_b:
        candidates.append({
            "kind": "retransmissions",
            "name": "retransmissions",
            "score": abs(rex_b - rex_a) / max(msgs_a, msgs_b, 1),
            "verdict": ("retransmissions moved %d -> %d" % (rex_a, rex_b)),
        })
    candidates.sort(key=lambda e: (-e["score"], e["kind"], e["name"]))
    blame = candidates[:top]

    workload_a = side_a.get("workload")
    workload_b = side_b.get("workload")
    workload = (workload_a if workload_a == workload_b
                else "%s vs %s" % (workload_a, workload_b))
    headline = ("%s completes %s in %.6f s vs %.6f s for %s "
                "(delta %+.3f ms, messages %d vs %d)"
                % (label_b, workload, side_b["completion_time_s"],
                   side_a["completion_time_s"], label_a, delta_ns / 1e6,
                   msgs_b, msgs_a))
    verdicts = [headline] + [entry["verdict"] for entry in blame[:3]]

    return {
        "version": REPORT_VERSION,
        "workload": workload,
        "a": _side_summary(side_a, label_a),
        "b": _side_summary(side_b, label_b),
        "delta": {
            "completion_time_ns": delta_ns,
            "completion_time_s": delta_ns / 1e9,
            "messages": msgs_b - msgs_a,
            "bytes": side_b["bytes"] - side_a["bytes"],
            "retransmissions": rex_b - rex_a,
        },
        "layers": layers,
        "ops": ops,
        "meta_messages": meta,
        "data_messages": data,
        "resources": resources,
        "telemetry": telemetry,
        "blame": blame,
        "verdicts": verdicts,
    }


def _layer_entry(name: str, a_layer_ns: int, b_layer_ns: int,
                 total_ns: int) -> Dict[str, Any]:
    delta = b_layer_ns - a_layer_ns
    # `+ 0.0` normalizes the -0.0 a zero delta over a negative total
    # produces; the share is symmetric under side swap either way.
    share = (delta / total_ns + 0.0) if total_ns else None
    return {
        "layer": name,
        "a_s": a_layer_ns / 1e9,
        "b_s": b_layer_ns / 1e9,
        "delta_ns": delta,
        "delta_s": delta / 1e9,
        "share": share,
    }


def _side_summary(side: Dict[str, Any], label: str) -> Dict[str, Any]:
    return {
        "label": label,
        "workload": side.get("workload"),
        "stack": side.get("stack"),
        "completion_time_s": side["completion_time_s"],
        "messages": side["messages"],
        "bytes": side["bytes"],
        "retransmissions": side.get("retransmissions", 0),
    }


def _telemetry_deltas(snap_a: Optional[Dict[str, Any]],
                      snap_b: Optional[Dict[str, Any]],
                      ) -> Optional[List[Dict[str, Any]]]:
    if snap_a is None or snap_b is None:
        return None
    series_a = snap_a.get("series", {})
    series_b = snap_b.get("series", {})
    out: List[Dict[str, Any]] = []

    def _stats(entry: Optional[Dict[str, Any]]) -> Tuple[float, int, float]:
        if entry is None:
            return 0.0, 0, 0.0
        rollup = entry["rollup"]
        mean = rollup["total"] / rollup["count"] if rollup["count"] else 0.0
        return mean, rollup["count"], rollup["max"] or 0.0

    for name in sorted(set(series_a) | set(series_b)):
        entry_a = series_a.get(name)
        entry_b = series_b.get(name)
        mean_a, count_a, max_a = _stats(entry_a)
        mean_b, count_b, max_b = _stats(entry_b)
        out.append({
            "series": name,
            "tag": (entry_a or entry_b)["tag"],
            "a_mean": mean_a, "b_mean": mean_b,
            "delta_mean": mean_b - mean_a,
            "a_count": count_a, "b_count": count_b,
            "delta_count": count_b - count_a,
            "a_max": max_a, "b_max": max_b,
            "delta_max": max_b - max_a,
        })
    return out


# -- renderers ----------------------------------------------------------------


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [max(len(headers[i]), max([len(r[i]) for r in rows] or [0]))
              for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(c.ljust(w)
                               for c, w in zip(row, widths)).rstrip())
    return lines


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return "%.6f" % value
    return str(value)


def _report_tables(report: Dict[str, Any],
                   ) -> List[Tuple[str, List[str], List[List[str]]]]:
    """The report's sections as ``(title, headers, rows)`` triples.

    One source of truth for the text and HTML renderers, so the two
    formats always agree on content.
    """
    sections: List[Tuple[str, List[str], List[List[str]]]] = []
    a = report["a"]
    b = report["b"]
    delta = report["delta"]
    sections.append((
        "totals",
        ["metric", a["label"], b["label"], "delta"],
        [
            ["completion_time_s", _fmt(a["completion_time_s"]),
             _fmt(b["completion_time_s"]),
             "%+.6f" % delta["completion_time_s"]],
            ["messages", str(a["messages"]), str(b["messages"]),
             "%+d" % delta["messages"]],
            ["bytes", str(a["bytes"]), str(b["bytes"]),
             "%+d" % delta["bytes"]],
            ["retransmissions", str(a["retransmissions"]),
             str(b["retransmissions"]), "%+d" % delta["retransmissions"]],
        ],
    ))
    sections.append((
        "layer attribution (exclusive ms; deltas sum exactly to the "
        "completion delta)",
        ["layer", "a (ms)", "b (ms)", "delta (ms)", "share"],
        [[entry["layer"], "%.3f" % (entry["a_s"] * 1e3),
          "%.3f" % (entry["b_s"] * 1e3), "%+.3f" % (entry["delta_ns"] / 1e6),
          ("-" if entry["share"] is None
           else "%.1f%%" % (100.0 * entry["share"]))]
         for entry in report["layers"]],
    ))
    if report["ops"] is not None:
        rows = []
        for entry in sorted(report["ops"],
                            key=lambda e: (-abs(e["delta"]["requests"]),
                                           e["op"])):
            rows.append([
                entry["op"], entry["family"],
                str(entry["a"]["requests"]), str(entry["b"]["requests"]),
                "%+d" % entry["delta"]["requests"],
                "%+d" % entry["delta"]["retransmits"],
                "%+d" % (entry["delta"]["req_bytes"]
                         + entry["delta"]["rep_bytes"]),
            ])
        meta = report["meta_messages"]
        data = report["data_messages"]
        rows.append(["(meta-data/journal)", "meta", str(meta["a"]),
                     str(meta["b"]), "%+d" % meta["delta"], "+0", ""])
        rows.append(["(data transfer)", "data", str(data["a"]),
                     str(data["b"]), "%+d" % data["delta"], "+0", ""])
        sections.append((
            "message drift per op (requests)",
            ["op", "family", "a req", "b req", "delta req", "delta rexmit",
             "delta bytes"],
            rows,
        ))
    if report["resources"]:
        sections.append((
            "resource queueing deltas",
            ["resource", "util a", "util b", "d util", "d mean queue",
             "d p95 wait (ms)", "d acquisitions"],
            [[entry["resource"],
              "%.3f" % entry["a"]["utilization"],
              "%.3f" % entry["b"]["utilization"],
              "%+.3f" % entry["delta"]["utilization"],
              "%+.3f" % entry["delta"]["mean_queue"],
              "%+.3f" % (entry["delta"]["p95_wait_s"] * 1e3),
              "%+d" % entry["delta"]["acquisitions"]]
             for entry in report["resources"]],
        ))
    if report["telemetry"] is not None:
        sections.append((
            "telemetry series deltas",
            ["series", "tag", "mean a", "mean b", "d mean", "d max",
             "d count"],
            [[entry["series"], entry["tag"], "%.6g" % entry["a_mean"],
              "%.6g" % entry["b_mean"], "%+.6g" % entry["delta_mean"],
              "%+.6g" % entry["delta_max"], "%+d" % entry["delta_count"]]
             for entry in report["telemetry"]],
        ))
    if report["blame"]:
        sections.append((
            "blame (ranked by contribution)",
            ["#", "score", "kind", "name", "verdict"],
            [[str(rank + 1), "%.3f" % entry["score"], entry["kind"],
              entry["name"], entry["verdict"]]
             for rank, entry in enumerate(report["blame"])],
        ))
    return sections


def format_explain(report: Dict[str, Any]) -> str:
    """Render a report as aligned, pure-ASCII text (the CLI default).

    Deterministic: equal reports yield equal bytes, the property the
    explain-smoke CI job compares.
    """
    lines = ["== repro explain: %s  a=%s  b=%s =="
             % (report["workload"], report["a"]["label"],
                report["b"]["label"])]
    for title, headers, rows in _report_tables(report):
        lines.append("")
        lines.append("-- " + title)
        lines.extend(_table(headers, rows))
    lines.append("")
    lines.append("-- verdict")
    for verdict in report["verdicts"]:
        lines.append(" * " + verdict)
    return "\n".join(lines) + "\n"


def format_explain_json(report: Dict[str, Any]) -> str:
    """The report as stable JSON (sorted keys, trailing newline)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


_HTML_HEAD = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>%(title)s</title>
<style>
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       background: #101418; color: #d8dee4; margin: 2em; }
h1 { font-size: 1.2em; border-bottom: 1px solid #2c333b; }
h2 { font-size: 1.0em; color: #9fb3c8; margin-top: 1.6em; }
table { border-collapse: collapse; }
th, td { padding: 0.15em 0.9em 0.15em 0; font-size: 0.8em;
         text-align: left; vertical-align: top; }
th { color: #7d8b99; border-bottom: 1px solid #2c333b; }
.verdicts li { color: #e8b339; font-size: 0.85em; }
.meta { color: #7d8b99; font-size: 0.75em; }
</style>
</head>
<body>
<h1>%(title)s</h1>
<p class="meta">differential diagnosis report &mdash; self-contained
export (no external assets)</p>
"""

_HTML_FOOT = "</body>\n</html>\n"


def render_explain_html(report: Dict[str, Any],
                        title: Optional[str] = None) -> str:
    """Render a report as one self-contained HTML document.

    Same sections as :func:`format_explain`; output bytes are a pure
    function of the report (the CI artifact contract).
    """
    if title is None:
        title = ("repro explain: %s (%s vs %s)"
                 % (report["workload"], report["a"]["label"],
                    report["b"]["label"]))
    parts = [_HTML_HEAD % {"title": _escape(title)}]
    for section_title, headers, rows in _report_tables(report):
        parts.append("<h2>%s</h2>\n" % _escape(section_title))
        parts.append("<table>\n<tr>%s</tr>\n"
                     % "".join("<th>%s</th>" % _escape(h) for h in headers))
        for row in rows:
            parts.append("<tr>%s</tr>\n"
                         % "".join("<td>%s</td>" % _escape(c) for c in row))
        parts.append("</table>\n")
    parts.append("<h2>verdict</h2>\n<ul class=\"verdicts\">\n")
    for verdict in report["verdicts"]:
        parts.append("<li>%s</li>\n" % _escape(verdict))
    parts.append("</ul>\n")
    parts.append(_HTML_FOOT)
    return "".join(parts)


def write_explain_html(path: str, report: Dict[str, Any],
                       title: Optional[str] = None) -> None:
    """Write :func:`render_explain_html` output to ``path`` (UTF-8)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_explain_html(report, title=title))


# -- timeline diff ------------------------------------------------------------


def render_timeline_diff(tracer_a: Any, label_a: str,
                         tracer_b: Any, label_b: str,
                         limit: int = 0) -> str:
    """Interleave two packet traces side by side, ordered by time.

    The two stacks replay the same workload on independent simulators, so
    the traces share a t=0; each line lands in the left or right column by
    origin.  ``limit`` truncates to the first N messages per side
    (0 = everything).  This is the message-level companion of
    :func:`explain_runs`.
    """
    def rows(tracer: Any, side: int):
        msgs = tracer.messages[:limit] if limit else tracer.messages
        for msg in msgs:
            arrow = "->" if msg.direction == "c2s" else "<-"
            text = "%s %s %s %dB" % (
                arrow, msg.op, "req" if msg.kind == "request" else "rep",
                msg.size)
            if msg.retransmission:
                text += " REXMIT"
            yield (msg.t, side, text)

    merged = sorted(
        list(rows(tracer_a, 0)) + list(rows(tracer_b, 1)),
        key=lambda row: (row[0], row[1]))
    width = max(
        [len(label_a) + 2] +
        [len(text) for _t, side, text in merged if side == 0]) + 2
    lines = ["%12s  %s%s" % ("t (ms)", label_a.ljust(width), label_b),
             "-" * (14 + width + len(label_b))]
    for t, side, text in merged:
        left = text if side == 0 else ""
        right = text if side == 1 else ""
        lines.append("%12.3f  %s%s" % (t * 1e3, left.ljust(width), right))
    return "\n".join(lines)
