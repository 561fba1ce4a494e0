"""The simulated-time profiler: where do the paper's seconds actually go?

The paper's explanations hinge on attribution — which layer burned the
time (Tables 5, 9, 10), which causal chain made RANDOM WRITE slow on NFS
(Table 4), how deep the disk queues ran.  :class:`Profile` answers those
questions from a :class:`~repro.obs.tracer.Tracer` recording:

* **attribution** — per-layer inclusive and exclusive simulated time
  (syscall -> RPC/SCSI -> journal -> cache -> RAID -> disk).  *Inclusive*
  is the plain sum of span durations per layer.  *Exclusive* comes from
  the critical-path tiling below, so exclusive times for one top-level
  operation always sum exactly to that operation's duration — no
  double-counting across nested or parallel spans;
* **critical paths** — for any top-level span, the longest
  causally-dependent chain of segments explaining its completion time.
  Every instant of the root's interval is attributed to the innermost
  span on the *blocking chain*: walking backward from the root's end,
  time is charged to the child that finished last, recursively, and gaps
  no child covers are charged to the parent itself.  The segments tile
  the root's interval exactly, so their lengths sum to the root duration
  (the profiler's conservation law);
* **queueing analytics** — per-resource utilization, wait-time
  percentiles, and exact time-average queue depth, read from the
  :class:`~repro.sim.stats.ResourceStats` every
  :class:`~repro.sim.resources.Resource` maintains.

Build one with ``Profile(stack.tracer)`` after a traced run, or let
``repro bench`` embed the numbers in its ``BENCH_*.json`` output.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .tracer import Span, Tracer

__all__ = [
    "PathSegment",
    "LayerStat",
    "Profile",
    "format_attribution",
    "format_critical_path",
    "format_table",
    "resource_report",
    "format_resource_report",
]

# Canonical display order: request flow from the application downward.
LAYER_ORDER = ("syscall", "rpc", "nfs", "scsi", "cache", "journal",
               "raid", "disk")


class PathSegment:
    """One piece of a critical path: ``span`` was the blocker in [start, end]."""

    __slots__ = ("span", "start", "end")

    def __init__(self, span: Span, start: float, end: float):
        self.span = span
        self.start = start
        self.end = end

    @property
    def duration(self) -> float:
        """Simulated seconds this segment contributes to the path."""
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PathSegment %s %.6f..%.6f>" % (
            self.span.name, self.start, self.end)


class LayerStat:
    """Per-layer attribution totals (see :meth:`Profile.attribution`)."""

    __slots__ = ("layer", "spans", "inclusive", "exclusive")

    def __init__(self, layer: str):
        self.layer = layer
        self.spans = 0          # finished spans in this layer
        self.inclusive = 0.0    # sum of span durations
        self.exclusive = 0.0    # time on the blocking chain

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<LayerStat %s n=%d incl=%.6f excl=%.6f>" % (
            self.layer, self.spans, self.inclusive, self.exclusive)


def _critical_path(root: Span, children: Dict[Optional[int], List[Span]],
                   ) -> List[PathSegment]:
    """Tile ``[root.start, root.end]`` with blocking-chain segments."""
    if root.end is None:
        return []
    segments: List[PathSegment] = []

    def walk(span: Span, lo: float, hi: float) -> None:
        # Attribute [lo, hi] to `span` and its descendants, walking
        # backward from hi: the child that ends last is the blocker.
        t = hi
        kids = [c for c in children.get(span.id, ())
                if c.end is not None and c.end > lo and c.start < hi]
        kids.sort(key=lambda c: (c.end, c.start, c.id))
        for child in reversed(kids):
            if t <= lo:
                break
            child_end = min(child.end, t)
            child_lo = max(child.start, lo)
            if child_end <= child_lo:
                continue
            if child_end < t:
                segments.append(PathSegment(span, child_end, t))
            walk(child, child_lo, child_end)
            t = child_lo
        if t > lo:
            segments.append(PathSegment(span, lo, t))

    walk(root, root.start, root.end)
    segments.reverse()
    return segments


class Profile:
    """Attribution, critical paths, and totals for one traced run.

    ``roots`` defaults to the finished ``syscall``-category spans (the
    paper's unit of account); when a recording has none, spans without a
    recorded parent are used instead.  Workload syscalls are serial, so
    the default roots never overlap and per-layer exclusive times sum to
    at most the total simulated time.
    """

    def __init__(self, tracer: Tracer, roots: Optional[Sequence[Span]] = None):
        self.tracer = tracer
        self._children = tracer.span_children()
        self._paths: Dict[int, List[PathSegment]] = {}
        if roots is None:
            roots = [s for s in tracer.spans if s.cat == "syscall"]
            if not roots:
                known = {s.id for s in tracer.spans}
                roots = [s for s in tracer.spans
                         if s.parent is None or s.parent not in known]
        self.roots: List[Span] = sorted(roots, key=lambda s: (s.start, s.id))

    # -- structure ------------------------------------------------------------

    def subtree(self, root: Span) -> List[Span]:
        """``root`` plus every finished descendant (cached child index)."""
        out: List[Span] = []
        stack = [root]
        while stack:
            span = stack.pop()
            out.append(span)
            stack.extend(reversed(self._children.get(span.id, ())))
        return out

    def critical_path(self, root: Span) -> List[PathSegment]:
        """The blocking-chain tiling of ``root``'s interval, in time order.

        The segment durations sum to ``root.duration`` exactly — every
        instant is attributed to precisely one span.  Tilings are
        memoized per root: :meth:`attribution` and
        :meth:`critical_path_summary` both traverse every root, and the
        tree (hence the tiling) cannot change after the recording.
        """
        cached = self._paths.get(root.id)
        if cached is None:
            cached = self._paths[root.id] = _critical_path(
                root, self._children)
        return cached

    @property
    def accounted(self) -> float:
        """Total simulated time under the roots (sum of root durations)."""
        return sum(root.duration for root in self.roots)

    # -- attribution ----------------------------------------------------------

    def attribution(self) -> Dict[str, LayerStat]:
        """Per-layer inclusive/exclusive attribution over the roots.

        Layers are span categories (``syscall``, ``rpc``, ``nfs``,
        ``scsi``, ``cache``, ``journal``, ``raid``, ``disk``), returned
        in request-flow order.  Exclusive times are critical-path
        segments, so they sum to :attr:`accounted` exactly.
        """
        stats: Dict[str, LayerStat] = {}

        def stat(layer: str) -> LayerStat:
            entry = stats.get(layer)
            if entry is None:
                entry = stats[layer] = LayerStat(layer)
            return entry

        for root in self.roots:
            for segment in self.critical_path(root):
                stat(segment.span.cat).exclusive += segment.duration
            for span in self.subtree(root):
                entry = stat(span.cat)
                entry.spans += 1
                entry.inclusive += span.duration
        ordered: Dict[str, LayerStat] = {}
        for layer in LAYER_ORDER:
            if layer in stats:
                ordered[layer] = stats.pop(layer)
        for layer in sorted(stats):
            ordered[layer] = stats[layer]
        return ordered

    def critical_path_summary(self, name: Optional[str] = None,
                              ) -> List[Tuple[str, float, int]]:
        """Rank blocking segments across roots: ``(span name, seconds, hops)``.

        ``name`` filters the roots (e.g. ``"syscall:pwrite"`` answers
        "why are random writes slow"); ``None`` aggregates every root.
        Sorted by total attributed seconds, descending.
        """
        totals: Dict[str, List[float]] = {}
        for root in self.roots:
            if name is not None and root.name != name:
                continue
            for segment in self.critical_path(root):
                entry = totals.setdefault(segment.span.name, [0.0, 0])
                entry[0] += segment.duration
                entry[1] += 1
        ranked = [(span_name, total, int(hops))
                  for span_name, (total, hops) in totals.items()]
        ranked.sort(key=lambda row: (-row[1], row[0]))
        return ranked


# -- text renderers -----------------------------------------------------------


def format_table(headers: Sequence[Any], rows: Sequence[Sequence[Any]]) -> str:
    """``rows`` under ``headers`` as left-aligned columns, two spaces apart.

    A rule as long as the header line separates the two; every cell is
    ``str()``-ed.  The artifact tables (``paper.print_table``), the op
    summary and the profile reports all print through this.
    """
    widths = [max(len(str(headers[i])),
                  max((len(str(r[i])) for r in rows), default=0))
              for i in range(len(headers))]
    out = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    out.append("-" * len(out[0]))
    for row in rows:
        out.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def format_attribution(profile: Profile) -> str:
    """The per-layer attribution as an aligned text table.

    ``excl %`` is each layer's share of the total accounted time (the
    column sums to 100% by the profiler's conservation law).
    """
    attribution = profile.attribution()
    total = profile.accounted
    if not attribution or total <= 0.0:
        return "(no spans to attribute)"
    rows = []
    for layer, stat in attribution.items():
        rows.append([
            layer, stat.spans,
            "%.3f" % (stat.inclusive * 1e3),
            "%.3f" % (stat.exclusive * 1e3),
            "%5.1f%%" % (100.0 * stat.exclusive / total),
        ])
    rows.append(["total", sum(s.spans for s in attribution.values()),
                 "", "%.3f" % (total * 1e3), "100.0%"])
    return format_table(["layer", "spans", "incl ms", "excl ms", "excl %"],
                        rows)


def format_critical_path(profile: Profile, name: Optional[str] = None,
                         limit: int = 12) -> str:
    """The ranked critical-path summary as an aligned text table.

    One row per blocking span name: total seconds attributed to it across
    the matching roots, its share of those roots' total duration, and how
    many path segments it appeared in.  ``limit`` truncates the ranking
    (0 = all rows).
    """
    ranked = profile.critical_path_summary(name)
    matching = [r for r in profile.roots if name is None or r.name == name]
    total = sum(root.duration for root in matching)
    if not ranked or total <= 0.0:
        return "(no critical path: no matching finished roots)"
    if limit:
        shown = ranked[:limit]
    else:
        shown = ranked
    rows = []
    for rank, (span_name, seconds, hops) in enumerate(shown, start=1):
        rows.append([rank, span_name, "%.3f" % (seconds * 1e3),
                     "%5.1f%%" % (100.0 * seconds / total), hops])
    title = "critical path for %s (%d ops, %.3f ms):" % (
        name if name is not None else "all roots", len(matching), total * 1e3)
    table = format_table(["rank", "segment", "ms", "share", "hops"], rows)
    if len(shown) < len(ranked):
        table += "\n(... %d more segments)" % (len(ranked) - len(shown))
    return title + "\n" + table


def resource_report(resources: Sequence[Any],
                    ) -> Tuple[List[str], List[List[Any]]]:
    """Build the queueing-analytics table: ``(headers, rows)``.

    One row per resource, read from its
    :class:`~repro.sim.stats.ResourceStats`: utilization, acquisition and
    contention counts, mean/p95 wait, and exact time-average queue depth.
    """
    headers = ["resource", "cap", "util", "acq", "queued",
               "mean wait ms", "p95 wait ms", "avg queue"]
    rows: List[List[Any]] = []
    for resource in resources:
        stats = resource.stats
        rows.append([
            resource.name or "(anonymous)",
            resource.capacity,
            "%5.1f%%" % (100.0 * stats.utilization()),
            stats.acquisitions,
            stats.contended,
            "%.3f" % (stats.mean_wait() * 1e3),
            "%.3f" % (stats.wait_hist.percentile(0.95) * 1e3),
            "%.3f" % stats.mean_queue_length(),
        ])
    return headers, rows


def format_resource_report(resources: Sequence[Any]) -> str:
    """The queueing-analytics table as aligned text."""
    headers, rows = resource_report(resources)
    if not rows:
        return "(no resources)"
    return format_table(headers, rows)
