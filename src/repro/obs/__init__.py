"""Observability for the simulated testbed: tracing, histograms, vmstat.

The paper observed its live testbed with Ethereal (packet traces),
``nfsstat`` (per-op counters), and ``vmstat`` (utilization sampling).
This package is the simulated equivalent of all three:

* :class:`~repro.obs.tracer.Tracer` records protocol messages, causal
  spans across every layer, point events, and latency histograms.  An
  untraced run has no tracer at all (the simulator's ``tracer`` slot is
  ``None``), so it is bit-identical to the uninstrumented simulator;
* :mod:`~repro.obs.export` renders a recording as a JSONL packet trace, a
  per-op summary table, or a Chrome ``trace_event`` file for
  ``chrome://tracing`` / Perfetto;
* :class:`~repro.obs.proxy.TracedClient` roots each causal tree at the
  system call the workload issued;
* :class:`~repro.obs.profile.Profile` turns a recording into per-layer
  time attribution, critical paths, and queueing analytics (the analysis
  behind the paper's Tables 5/9/10);
* :mod:`~repro.obs.bench` runs named workload suites on both stacks and
  emits/compares schema-versioned ``BENCH_*.json`` documents — the
  ``repro bench`` regression gate;
* :mod:`~repro.obs.telemetry` is the vmstat of the set and the
  *scale-out* counterpart of the tracer: opt-in, bounded-memory
  streaming rollups of every tier (utilization, queue depth, rates)
  from the repo's one periodic sampler, invariant watchers over the
  stream, and associative cross-worker merging — rendered by
  :mod:`~repro.obs.dashboard` as ASCII timeline dashboards or a
  self-contained HTML export (``repro dash``), and by
  :func:`~repro.obs.export.chrome_trace` as counter tracks.

* :mod:`~repro.obs.explain` is the *differential* layer: it diffs two
  runs (stack vs stack, baseline vs candidate bench JSON, faulted vs
  clean) into a deterministic report — per-layer time deltas that sum
  exactly to the completion-time delta, per-op message drift, queueing
  and telemetry deltas, and a ranked plain-English blame list
  (``repro explain``).

Build a traced stack with ``make_stack(kind, trace=True)`` and read
``stack.tracer`` after the run, or use the ``repro trace`` /
``repro bench`` CLIs; ``make_stack(kind, telemetry=True)`` attaches the
streaming collector as ``stack.telemetry``.  Every instrument hangs off
one attachment point, the simulator slot of the same name
(``sim.tracer``, ``sim.telemetry``), which is ``None`` when off.

The names below resolve lazily (:mod:`repro._lazy`), so neither
``import repro`` nor an untraced stack loads any of these modules: a
traced stack loads the tracer and the syscall proxy, and the analysis,
benchmark and dashboard modules load on first use.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "tracer": ("LatencyHistogram", "MessageEvent", "PointEvent", "Span",
               "Tracer"),
    "proxy": ("SYSCALL_NAMES", "TracedClient"),
    "export": ("chrome_trace", "format_op_summary", "op_drift", "op_summary",
               "packet_trace_lines", "render_span_tree",
               "write_chrome_trace", "write_packet_trace"),
    "profile": ("LayerStat", "PathSegment", "Profile", "format_attribution",
                "format_critical_path", "format_resource_report",
                "resource_report"),
    "bench": ("SUITES", "WORKLOADS", "compare", "format_compare",
              "format_compare_json", "load_bench", "run_case", "run_suite",
              "write_bench"),
    "explain": ("explain_runs", "format_explain", "format_explain_json",
                "render_explain_html", "render_timeline_diff", "run_side",
                "side_from_bench", "write_explain_html"),
    "telemetry": ("SeriesRollup", "Telemetry", "TelemetryFinding",
                  "merge_rollups", "merge_snapshots"),
    "dashboard": ("render_dashboard", "render_html", "write_html"),
})
