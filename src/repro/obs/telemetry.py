"""Streaming telemetry: bounded-memory rollups, watchers, heartbeats.

The span-level tracing of :mod:`repro.obs.tracer` records every message
and every span — perfect for a single workload, far too heavy for the
scale-out runs the ROADMAP targets (thousands of clients, hours of
simulated time).  This module is the light-weight alternative the related
iSCSI/RAID measurement papers actually use: continuous utilization and
queue-depth *timelines*, not per-message traces.

Three pieces:

* :class:`SeriesRollup` — one metric's time series, held in a fixed-size
  ring of windows.  Each window keeps streaming ``count/sum/min/max``;
  the whole series additionally feeds a mergeable fixed-bucket
  :class:`~repro.sim.stats.LatencyHistogram` plus exact run-wide totals.
  Memory is bounded by construction: when the clock outruns the ring the
  oldest windows are dropped (and counted), never grown.
* :class:`Telemetry` — the per-stack collector.  Registered probes
  (links, disks, RAID, caches, RPC peers, iSCSI sessions, per-tier
  resource queues) are sampled on a fixed simulated-time interval by one
  background process; push-style hooks (:meth:`Telemetry.count`,
  :meth:`Telemetry.observe`) let hot paths contribute counters.  The
  collector is attached as the simulator's ``telemetry`` slot; the
  disabled form of the layer is that slot being ``None``, and every hook
  site guards with ``if telemetry is not None:`` (simlint O301), so a
  telemetry-off run executes the exact same event sequence as before
  the layer existed.  Invariant *watchers* scan the stream as it
  accumulates and report findings the way the simsan sanitizers do
  (stable codes, human messages).
* :class:`Heartbeat` — wall-clock-paced progress lines on stderr so long
  ``repro all --jobs`` runs are no longer silent: simulated-time versus
  wall-time rate, events per second, calendar depth, and the experiment
  runner's cell/cache progress.  Status only, stderr only — stdout and
  ``BENCH_*.json`` stay byte-identical.

Rollups are *mergeable*: :func:`merge_snapshots` folds the JSON
snapshots of many workers into one, associatively and keyed by series
id, so :class:`~repro.core.runner.ExperimentRunner` can aggregate
telemetry across a process-pool fan-out deterministically — the merged
result is byte-identical for ``--jobs 1`` and ``--jobs 8``.

Determinism note: everything keyed on the *simulated* clock is exact and
reproducible.  Only :class:`Heartbeat` reads the host clock, and its
output goes exclusively to stderr.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..sim.stats import LatencyHistogram

__all__ = [
    "SeriesRollup",
    "Telemetry",
    "TelemetryFinding",
    "Heartbeat",
    "merge_rollups",
    "merge_snapshots",
    "SNAPSHOT_VERSION",
]

SNAPSHOT_VERSION = 1

# Watcher tuning: how many consecutive windows of evidence a finding
# needs.  Small enough to fire within the quick workloads' time scale,
# large enough that one busy burst is not an alarm.
_WATCH_WINDOWS = 8
_QUEUE_ALARM_DEPTH = 16.0
_UTIL_PEGGED = 0.999


class TelemetryFinding:
    """One watcher finding: a stable code, the series, a human message.

    Shaped like :class:`repro.check.simsan.Finding` so CLI consumers can
    render both families uniformly.  Codes:

    * **T501 unbounded-queue-growth** — a queue-depth series rose
      monotonically across a full watch span and ended above the alarm
      depth: the classic signature of an open-loop overload.
    * **T502 utilization-pegged** — a utilization series sat at 1.0 for
      a full watch span: the tier is the bottleneck (or a busy-time
      accounting bug).
    * **T503 zero-progress-stall** — progress counters went silent for a
      full watch span while queues still held work.
    """

    __slots__ = ("code", "series", "message")

    def __init__(self, code: str, series: str, message: str):
        self.code = code
        self.series = series
        self.message = message

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "TelemetryFinding(%s@%s: %s)" % (
            self.code, self.series, self.message)

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, TelemetryFinding)
                and (self.code, self.series, self.message)
                == (other.code, other.series, other.message))


class SeriesRollup:
    """Fixed-memory rollup of one metric: a ring of time windows.

    A window covers ``width`` simulated seconds; at most ``capacity``
    windows are retained.  Recording past the ring's end drops the
    oldest windows (tallied in :attr:`dropped_windows`); run-wide
    ``count/total/min/max`` and the fixed-bucket histogram are streaming
    accumulators and never lose data.  All state is plain arithmetic on
    JSON-able scalars, so two rollups of the same geometry merge exactly
    (see :func:`merge_rollups`).
    """

    __slots__ = ("width", "capacity", "start", "counts", "sums", "mins",
                 "maxs", "hist", "count", "total", "min", "max",
                 "dropped_windows")

    def __init__(self, width: float, capacity: int):
        if width <= 0:
            raise ValueError("window width must be positive")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.width = width
        self.capacity = capacity
        self.start: Optional[int] = None   # absolute index of oldest window
        self.counts: List[int] = []
        self.sums: List[float] = []
        self.mins: List[Optional[float]] = []
        self.maxs: List[Optional[float]] = []
        self.hist = LatencyHistogram()
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.dropped_windows = 0

    def record(self, t: float, value: float) -> None:
        """Add one observation at simulated time ``t``."""
        index = int(t / self.width)
        if self.start is None:
            self.start = index
        if index < self.start:
            # A merge-era straggler (or a clamped clock): fold it into
            # the oldest retained window rather than growing backwards.
            index = self.start
        offset = index - self.start
        while offset >= self.capacity:
            # Ring full: drop the oldest window (bounded memory).
            self.counts.pop(0)
            self.sums.pop(0)
            self.mins.pop(0)
            self.maxs.pop(0)
            self.start += 1
            self.dropped_windows += 1
            offset -= 1
        while len(self.counts) <= offset:
            self.counts.append(0)
            self.sums.append(0.0)
            self.mins.append(None)
            self.maxs.append(None)
        self.counts[offset] += 1
        self.sums[offset] += value
        if self.mins[offset] is None or value < self.mins[offset]:
            self.mins[offset] = value
        if self.maxs[offset] is None or value > self.maxs[offset]:
            self.maxs[offset] = value
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.hist.record(value)

    @property
    def last_index(self) -> Optional[int]:
        """Absolute index of the newest retained window (None if empty)."""
        if self.start is None:
            return None
        return self.start + len(self.counts) - 1

    @property
    def mean(self) -> float:
        """Run-wide arithmetic mean (0.0 when empty)."""
        if not self.count:
            return 0.0
        return self.total / self.count

    def window_means(self) -> List[Optional[float]]:
        """Per-window means, oldest first (None for empty windows)."""
        return [self.sums[i] / self.counts[i] if self.counts[i] else None
                for i in range(len(self.counts))]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (the mergeable wire form)."""
        return {
            "width": self.width,
            "capacity": self.capacity,
            "start": self.start,
            "counts": list(self.counts),
            "sums": [round(s, 9) for s in self.sums],
            "mins": [None if m is None else round(m, 9) for m in self.mins],
            "maxs": [None if m is None else round(m, 9) for m in self.maxs],
            "hist": self.hist.as_dict(),
            "count": self.count,
            "total": round(self.total, 9),
            "min": None if self.min is None else round(self.min, 9),
            "max": None if self.max is None else round(self.max, 9),
            "dropped_windows": self.dropped_windows,
        }


def _merge_optional(a: Optional[float], b: Optional[float],
                    pick: Callable[[float, float], float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return pick(a, b)


def merge_rollups(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Merge two :meth:`SeriesRollup.as_dict` snapshots (associative).

    Windows align on their *absolute* index — every simulation starts at
    t=0, so window k of worker A and window k of worker B cover the same
    simulated phase.  The merged ring keeps the newest ``capacity``
    windows of the union; clipped windows count as dropped.  Bucketed
    histograms and run-wide totals add exactly, so the merge is
    associative and independent of worker completion order.
    """
    if a["width"] != b["width"]:
        raise ValueError("cannot merge rollups of different window widths "
                         "(%r vs %r)" % (a["width"], b["width"]))
    capacity = max(a["capacity"], b["capacity"])
    out: Dict[str, Any] = {
        "width": a["width"],
        "capacity": capacity,
        "count": a["count"] + b["count"],
        "total": a["total"] + b["total"],
        "min": _merge_optional(a["min"], b["min"], min),
        "max": _merge_optional(a["max"], b["max"], max),
        "dropped_windows": a["dropped_windows"] + b["dropped_windows"],
    }
    hist = LatencyHistogram.from_dict(a["hist"])
    hist.merge(LatencyHistogram.from_dict(b["hist"]))
    out["hist"] = hist.as_dict()

    if a["start"] is None and b["start"] is None:
        out.update(start=None, counts=[], sums=[], mins=[], maxs=[])
        return out
    parts = [p for p in (a, b) if p["start"] is not None]
    start = min(p["start"] for p in parts)
    end = max(p["start"] + len(p["counts"]) for p in parts)
    if end - start > capacity:
        out["dropped_windows"] += (end - start) - capacity
        start = end - capacity
    span = end - start
    counts = [0] * span
    sums = [0.0] * span
    mins: List[Optional[float]] = [None] * span
    maxs: List[Optional[float]] = [None] * span
    for part in parts:
        for i, count in enumerate(part["counts"]):
            offset = part["start"] + i - start
            if offset < 0:
                continue  # clipped by the merged ring
            counts[offset] += count
            sums[offset] += part["sums"][i]
            mins[offset] = _merge_optional(mins[offset], part["mins"][i], min)
            maxs[offset] = _merge_optional(maxs[offset], part["maxs"][i], max)
    out.update(start=start, counts=counts, sums=sums, mins=mins, maxs=maxs)
    return out


def merge_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold many :meth:`Telemetry.snapshot` documents into one.

    Keyed by series id, associative, and order-stable: series merge in
    sorted-id order and findings dedupe into a sorted list, so the
    output is byte-deterministic however the inputs were produced
    (serial run, process pool, different ``--jobs``).
    """
    if not snapshots:
        raise ValueError("nothing to merge")
    merged_series: Dict[str, Dict[str, Any]] = {}
    findings: Set[Tuple[str, str, str]] = set()
    samples = 0
    for snap in snapshots:
        if snap.get("version") != SNAPSHOT_VERSION:
            raise ValueError("telemetry snapshot version %r != %d"
                             % (snap.get("version"), SNAPSHOT_VERSION))
        samples += snap.get("samples", 0)
        for finding in snap.get("findings", []):
            findings.add((finding[0], finding[1], finding[2]))
        for name in sorted(snap.get("series", {})):
            entry = snap["series"][name]
            known = merged_series.get(name)
            if known is None:
                merged_series[name] = {
                    "tag": entry["tag"],
                    "rollup": _copy_rollup(entry["rollup"]),
                }
            else:
                known["rollup"] = merge_rollups(known["rollup"],
                                                entry["rollup"])
    return {
        "version": SNAPSHOT_VERSION,
        "samples": samples,
        "series": {name: merged_series[name]
                   for name in sorted(merged_series)},
        "findings": sorted(list(f) for f in findings),
    }


def _copy_rollup(rollup: Dict[str, Any]) -> Dict[str, Any]:
    """A structural copy so merging never aliases an input snapshot."""
    out = dict(rollup)
    out["counts"] = list(rollup["counts"])
    out["sums"] = list(rollup["sums"])
    out["mins"] = list(rollup["mins"])
    out["maxs"] = list(rollup["maxs"])
    out["hist"] = dict(rollup["hist"])
    out["hist"]["buckets"] = dict(rollup["hist"]["buckets"])
    return out


class Heartbeat:
    """Wall-clock-paced status lines on stderr for long runs.

    The one deliberately non-deterministic corner of the telemetry
    layer: it reads the *host* clock (what "is this run stuck?" means)
    and writes only to ``stream`` (stderr by default), so the
    reproducible stdout/JSON outputs are untouched.  Rate-limited to one
    line per ``min_interval`` wall seconds; :meth:`final` always prints.
    """

    __slots__ = ("label", "stream", "min_interval", "beats",
                 "_t0", "_last", "_last_sim", "_last_events")

    def __init__(self, label: str, stream: Any = None,
                 min_interval: float = 2.0):
        import time

        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.beats = 0
        # Host-clock read: heartbeats measure wall progress by design,
        # and never feed simulated state.
        self._t0 = time.monotonic()  # simlint: disable=D101 (wall progress)
        self._last = self._t0
        self._last_sim = 0.0
        self._last_events = 0

    def _wall(self) -> float:
        import time

        # Host-clock read: see __init__ — status output only.
        return time.monotonic()  # simlint: disable=D101 (wall progress)

    def maybe_beat(self, sim_now: float, events: int,
                   calendar: int) -> None:
        """Emit a simulation-progress line if the rate limit allows.

        Reports the simulated clock, the sim-time/wall-time rate since
        the previous beat, events processed per wall second, and the
        current calendar depth — vmstat for the simulator itself.
        """
        wall = self._wall()
        if wall - self._last < self.min_interval:
            return
        dt = wall - self._last
        sim_rate = (sim_now - self._last_sim) / dt if dt > 0 else 0.0
        ev_rate = (events - self._last_events) / dt if dt > 0 else 0.0
        self._last = wall
        self._last_sim = sim_now
        self._last_events = events
        self.beats += 1
        print("[hb %s] sim=%.3fs wall=%.1fs sim/wall=%.3gx ev/s=%.3g "
              "calendar=%d"
              % (self.label, sim_now, wall - self._t0, sim_rate, ev_rate,
                 calendar),
              file=self.stream)

    def progress(self, done: int, total: int, cached: int = 0,
                 force: bool = False) -> None:
        """Emit an experiment-runner progress line (cells and cache)."""
        wall = self._wall()
        if not force and wall - self._last < self.min_interval:
            return
        self._last = wall
        self.beats += 1
        elapsed = wall - self._t0
        rate = done / elapsed if elapsed > 0 else 0.0
        print("[hb %s] cells %d/%d (%d cached) wall=%.1fs rate=%.2f/s"
              % (self.label, done, total, cached, elapsed, rate),
              file=self.stream)

    def final(self, message: str) -> None:
        """Always-printed closing line (total wall time appended)."""
        self.beats += 1
        print("[hb %s] %s wall=%.1fs"
              % (self.label, message, self._wall() - self._t0),
              file=self.stream)


class Telemetry:
    """The per-stack streaming collector (the enabled form of the layer).

    There is no null object: the disabled layer is the simulator's
    ``telemetry`` slot being ``None``, and every hook site guards with
    ``if telemetry is not None:`` — one attribute load and branch, the
    contract every instrument follows (simlint O301 checks the shape).

    ``interval`` is the sampling period and ``window`` the rollup-window
    width, both in simulated seconds; ``capacity`` bounds the ring.  The
    sampler is one background process and the repo's only periodic
    sampler; series registered *after* it starts are picked up on the
    next tick (rate baselines are seeded at registration).
    """

    def __init__(self, sim: Any, interval: float = 0.002,
                 window: float = 0.032, capacity: int = 64,
                 heartbeat: Optional[Heartbeat] = None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval = interval
        self.window = window
        self.capacity = capacity
        self.heartbeat = heartbeat
        self.series: Dict[str, SeriesRollup] = {}
        self.tags: Dict[str, str] = {}
        self.samples = 0
        self.findings: List[TelemetryFinding] = []
        self._probes: List[Tuple[str, Callable[[], float], str, float]] = []
        self._last: Dict[str, float] = {}
        self._sampler = None

    # -- registration ---------------------------------------------------------

    def _rollup_for(self, name: str, tag: str) -> SeriesRollup:
        rollup = self.series.get(name)
        if rollup is None:
            rollup = self.series[name] = SeriesRollup(self.window,
                                                      self.capacity)
            self.tags[name] = tag
        return rollup

    def add_series(self, name: str, fn: Callable[[], float],
                   kind: str = "gauge", tag: str = "gauge",
                   scale: float = 1.0) -> None:
        """Register a sampled series.

        ``kind`` is ``"gauge"`` (record ``fn()`` as-is, e.g. queue
        depth), or ``"cumulative"``/``"rate"`` (record the per-second
        rate of change of a growing total, clamped at 0).
        ``tag`` labels the series for the watchers and the dashboard:
        ``"util"`` (utilization in [0, 1]), ``"queue"`` (depth),
        ``"rate"``, ``"progress"``, or plain ``"gauge"``.

        Registration while the sampler is live is fully supported: the
        rate baseline is seeded immediately, so the series appears from
        the next tick onward.
        """
        if kind not in ("gauge", "cumulative", "rate"):
            raise ValueError("unknown series kind %r" % (kind,))
        if name in self.series:
            raise ValueError("series %r already registered" % (name,))
        self._rollup_for(name, tag)
        self._probes.append((name, fn, kind, scale))
        if kind != "gauge":
            self._last[name] = fn()

    # -- push hooks (guard call sites with `if telemetry is not None:`) ------

    def count(self, name: str, value: float = 1.0) -> None:
        """Accumulate a push counter at the current simulated time."""
        rollup = self.series.get(name)
        if rollup is None:
            rollup = self._rollup_for(name, "progress")
        rollup.record(self.sim.now, value)

    def observe(self, name: str, value: float) -> None:
        """Record a push gauge observation at the current simulated time."""
        rollup = self.series.get(name)
        if rollup is None:
            rollup = self._rollup_for(name, "gauge")
        rollup.record(self.sim.now, value)

    # -- sampling -------------------------------------------------------------

    def start(self) -> None:
        """Spawn the background sampler (idempotent)."""
        if self._sampler is None:
            self._sampler = self.sim.spawn(self._sample_loop(),
                                           name="telemetry.sampler")

    def _sample_loop(self):
        sim = self.sim
        last = self._last
        last_t = sim.now
        while True:
            yield sim.timeout(self.interval)
            now = sim.now
            dt = now - last_t
            last_t = now
            for name, fn, kind, scale in self._probes:
                value = fn()
                if kind != "gauge":
                    previous = last.get(name, value)
                    last[name] = value
                    if dt <= 0:
                        continue
                    value = max(0.0, value - previous) / dt
                self.series[name].record(now, value * scale)
            self.samples += 1
            if self.samples % _WATCH_WINDOWS == 0:
                self._run_watchers(now)
            hb = self.heartbeat
            if hb is not None:
                hb.maybe_beat(sim_now=now, events=sim._sequence,
                              calendar=len(sim._calendar))

    # -- watchers -------------------------------------------------------------

    def _fired(self, code: str, series: str) -> bool:
        return any(f.code == code and f.series == series
                   for f in self.findings)

    def _report(self, finding: TelemetryFinding) -> None:
        """Record one watcher finding; dump flight-recorder context."""
        self.findings.append(finding)
        recorder = self.sim.recorder
        if recorder is not None:
            recorder.dump(finding.code, finding.series, finding.message)

    def _run_watchers(self, now: float) -> None:
        """Scan the stream for invariant violations (one finding each)."""
        current_index = int(now / self.window)
        progress_alive = False
        progress_seen = False
        queued_work = False
        for name in sorted(self.series):
            rollup = self.series[name]
            tag = self.tags.get(name, "gauge")
            if tag == "progress":
                progress_seen = True
                last = rollup.last_index
                if last is not None and current_index - last < _WATCH_WINDOWS:
                    progress_alive = True
                continue
            if len(rollup.counts) < _WATCH_WINDOWS:
                continue
            recent_max = rollup.maxs[-_WATCH_WINDOWS:]
            recent_min = rollup.mins[-_WATCH_WINDOWS:]
            if any(m is None for m in recent_max):
                continue
            if tag == "queue":
                if rollup.maxs[-1] and rollup.maxs[-1] > 0:
                    queued_work = True
                grew = all(recent_max[i] < recent_max[i + 1]
                           for i in range(len(recent_max) - 1))
                if (grew and recent_max[-1] >= _QUEUE_ALARM_DEPTH
                        and not self._fired("T501", name)):
                    self._report(TelemetryFinding(
                        "T501", name,
                        "queue depth grew monotonically %.0f -> %.0f over "
                        "the last %d windows (unbounded growth?)"
                        % (recent_max[0], recent_max[-1], _WATCH_WINDOWS)))
            elif tag == "util":
                pegged = all(m is not None and m >= _UTIL_PEGGED
                             for m in recent_min)
                if pegged and not self._fired("T502", name):
                    self._report(TelemetryFinding(
                        "T502", name,
                        "utilization pegged at 1.0 for %d consecutive "
                        "windows (saturated tier)" % _WATCH_WINDOWS))
        if (progress_seen and not progress_alive and queued_work
                and not self._fired("T503", "progress")):
            self._report(TelemetryFinding(
                "T503", "progress",
                "no progress counters advanced for %d windows while "
                "queues still hold work (stall?)" % _WATCH_WINDOWS))

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The JSON-able, mergeable document for this run's telemetry."""
        return {
            "version": SNAPSHOT_VERSION,
            "samples": self.samples,
            "series": {
                name: {"tag": self.tags.get(name, "gauge"),
                       "rollup": self.series[name].as_dict()}
                for name in sorted(self.series)
            },
            "findings": sorted(
                [f.code, f.series, f.message] for f in self.findings),
        }
