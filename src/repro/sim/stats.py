"""Measurement primitives shared by the kernel and the observability layer.

Two classes live here because both the simulation substrate and
``repro.obs`` need them without importing each other:

* :class:`LatencyHistogram` — fixed geometric buckets with an explicit
  overflow bucket and exact min/max tracking, used for span latencies
  (``repro.obs``) and resource wait times (:class:`ResourceStats`);
* :class:`ResourceStats` — first-class queueing statistics for one
  :class:`~repro.sim.resources.Resource`: utilization, wait-time
  accounting, and the queue-depth integral that makes Little's law an
  exact checkable identity instead of an approximation.

The accounting is pure arithmetic on the simulated clock — it never
creates events — so instrumented and uninstrumented runs execute the
exact same event sequence.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["LatencyHistogram", "ResourceStats"]


class LatencyHistogram:
    """Fixed geometric buckets over latencies, 1 us to ~2 minutes.

    Buckets double from 1 microsecond; values beyond the last edge land
    in an explicit overflow bucket (:attr:`overflow`).  The exact minimum
    and maximum are tracked alongside the buckets, and every percentile
    answer is clamped into ``[min, max]`` — so empty and single-sample
    histograms, and values above the top bucket, never mis-report:

    * empty histogram — percentiles are 0.0 (nothing observed);
    * single sample — every percentile is exactly that sample;
    * overflow values — the high percentiles report the exact maximum,
      not a bucket edge that does not exist.

    Within a populated bucket the answer is the bucket's upper edge,
    which bounds the error to one bucket width — the standard
    fixed-bucket trade-off.
    """

    __slots__ = ("counts", "count", "total", "min", "max")

    EDGES: Tuple[float, ...] = tuple(1e-6 * (2.0 ** i) for i in range(28))

    def __init__(self):
        self.counts: List[int] = [0] * (len(self.EDGES) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, seconds: float) -> None:
        """Add one observation (in simulated seconds)."""
        # First edge >= seconds, i.e. the bucket whose upper edge bounds
        # the value; past the last edge this lands in the overflow bucket.
        index = bisect_left(self.EDGES, seconds)
        self.counts[index] += 1
        self.count += 1
        self.total += seconds
        if self.min is None:
            self.min = self.max = seconds
        else:
            if seconds < self.min:
                self.min = seconds
            if seconds > self.max:
                self.max = seconds

    @property
    def overflow(self) -> int:
        """Observations that fell above the top bucket edge."""
        return self.counts[-1]

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` into this histogram (associative, commutative).

        Fixed buckets make the merge exact: bucket counts add, totals
        add, and the exact min/max combine — the property the streaming
        telemetry layer relies on to aggregate rollups across
        process-pool workers.
        """
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min,
                                                              other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max,
                                                              other.max)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (sparse buckets: ``{index: count}``)."""
        return {
            "buckets": {str(i): c for i, c in enumerate(self.counts) if c},
            "count": self.count,
            "total": round(self.total, 9),
            "min": None if self.min is None else round(self.min, 9),
            "max": None if self.max is None else round(self.max, 9),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`as_dict` output."""
        hist = cls()
        for index, count in data.get("buckets", {}).items():
            hist.counts[int(index)] = count
        hist.count = data.get("count", 0)
        hist.total = data.get("total", 0.0)
        hist.min = data.get("min")
        hist.max = data.get("max")
        return hist

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        if not self.count:
            return 0.0
        return self.total / self.count

    def percentile(self, fraction: float) -> float:
        """Latency at the given fraction (0.5 = p50), from bucket edges.

        The raw bucket answer (upper edge; exact max for the overflow
        bucket) is clamped into the observed ``[min, max]`` range.
        Returns 0.0 for an empty histogram.  A partially restored
        histogram (bucket counts without min/max, e.g. a trimmed
        :meth:`from_dict` document) answers from bucket edges alone
        instead of claiming 0.0 — the diff engines rely on percentiles
        staying defined for every count > 0.
        """
        if not self.count:
            return 0.0
        if fraction <= 0.0:
            return self.min if self.min is not None else self._bucket_floor()
        target = fraction * self.count
        seen = 0
        result = None
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= target and count:
                if index < len(self.EDGES):
                    result = self.EDGES[index]
                else:
                    result = self.max
                break
        if result is None:
            result = self.max if self.max is not None else self.EDGES[-1]
        if self.min is not None and self.max is not None:
            return min(max(result, self.min), self.max)
        return result

    def _bucket_floor(self) -> float:
        """Lower edge of the first populated bucket (min/max unknown)."""
        for index, count in enumerate(self.counts):
            if count:
                return self.EDGES[index - 1] if index else 0.0
        return 0.0


class ResourceStats:
    """First-class queueing statistics for one resource.

    This is the resource's one busy-time integral: a single accumulator
    that the owning ``Resource`` updates whenever an acquirer queues,
    enters service, or leaves it, and that every utilization figure
    reads (``repro bench``, the profiles, telemetry, and through
    :meth:`~repro.client.host.Host.cpu_utilization` the CPU columns of
    Tables 9/10):

    * **utilization** — busy time integrated over the in-service count,
      divided by ``capacity * elapsed`` (what vmstat would report);
    * **wait accounting** — every acquisition records its queueing delay;
      contended waits (> 0) additionally feed a
      :class:`LatencyHistogram`, so p95/p99 wait times are available;
    * **queue-depth integral** — ``integral(queue_length dt)`` maintained
      at every enqueue/dequeue, giving the exact time-average queue
      length without sampling.

    Little's law (``L = lambda * W``) is an exact identity here: over any
    interval that begins and ends with an empty queue, the queue-depth
    integral equals the sum of all waits.
    :meth:`littles_law_residual` exposes the difference so tests can
    assert the accounting is conservative.
    """

    __slots__ = ("_resource", "_sim", "window_start", "acquisitions",
                 "contended", "total_wait", "max_wait", "wait_hist",
                 "busy_time", "_in_service", "_queue_len",
                 "_queue_integral", "_last_change")

    def __init__(self, resource: Any):
        self._resource = resource
        self._sim = resource.sim
        self.window_start = self._sim.now
        self.acquisitions = 0          # total successful acquires
        self.contended = 0             # acquires that had to queue
        self.total_wait = 0.0          # sum of all queueing delays
        self.max_wait = 0.0
        self.wait_hist = LatencyHistogram()   # contended waits only
        self.busy_time = 0.0           # integral of the in-service count
        self._in_service = 0
        self._queue_len = 0
        self._queue_integral = 0.0
        self._last_change = self._sim.now

    # -- accounting ---------------------------------------------------------------
    # The owning Resource updates the counters at each transition (enqueue,
    # enter service, leave service), inlining _accumulate() on the hot ones.

    def _accumulate(self) -> None:
        now = self._sim.now
        dt = now - self._last_change
        if dt > 0.0:
            self.busy_time += self._in_service * dt
            self._queue_integral += self._queue_len * dt
            self._last_change = now

    # -- derived figures ------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Simulated seconds since the start of the current window."""
        return self._sim.now - self.window_start

    @property
    def queue_integral(self) -> float:
        """``integral(queue_length dt)`` up to the current instant."""
        self._accumulate()
        return self._queue_integral

    def utilization(self) -> float:
        """Mean utilization over the current window, in [0, 1]."""
        self._accumulate()
        elapsed = self.elapsed
        if elapsed <= 0.0:
            return 0.0
        return self.busy_time / (self._resource.capacity * elapsed)

    def mean_wait(self) -> float:
        """Mean queueing delay over *all* acquisitions (0.0 when none)."""
        if not self.acquisitions:
            return 0.0
        return self.total_wait / self.acquisitions

    def mean_queue_length(self) -> float:
        """Exact time-average number of waiters (from the integral)."""
        elapsed = self.elapsed
        if elapsed <= 0.0:
            return 0.0
        return self.queue_integral / elapsed

    def arrival_rate(self) -> float:
        """Acquisitions per simulated second over the current window."""
        elapsed = self.elapsed
        if elapsed <= 0.0:
            return 0.0
        return self.acquisitions / elapsed

    def littles_law_residual(self) -> float:
        """``|integral(queue dt) - sum(waits)|`` — the conservation check.

        Exactly 0 (up to float addition order) whenever the wait queue is
        empty at both window edges; while acquirers are still queued the
        residual equals their accumulated-but-unfinished waiting time.
        """
        return abs(self.queue_integral - self.total_wait)

    def reset_window(self) -> None:
        """Start a fresh measurement window at the current instant.

        The busy time accumulated so far is committed, then every
        statistic restarts: ``window_start`` (now), ``busy_time``, the
        queue-depth integral, ``acquisitions``, ``contended``,
        ``total_wait``, ``max_wait`` and the wait histogram.  In-service
        and queued counts carry over (they are physical state), and a
        grant counts its wait from ``window_start`` at the earliest, so a
        window that begins with a queue still satisfies Little's law.  A
        host's vmstat window (``Host.reset_utilization_window``) is this
        reset on its CPU.
        """
        self._accumulate()
        self.window_start = self._sim.now
        self.acquisitions = 0
        self.contended = 0
        self.total_wait = 0.0
        self.max_wait = 0.0
        self.wait_hist = LatencyHistogram()
        self.busy_time = 0.0
        self._queue_integral = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (used by ``repro bench``)."""
        return {
            "capacity": self._resource.capacity,
            "utilization": round(self.utilization(), 9),
            "busy_s": round(self.busy_time, 9),
            "acquisitions": self.acquisitions,
            "contended": self.contended,
            "wait_s": round(self.total_wait, 9),
            "mean_wait_s": round(self.mean_wait(), 9),
            "max_wait_s": round(self.max_wait, 9),
            "p95_wait_s": round(self.wait_hist.percentile(0.95), 9),
            "mean_queue": round(self.mean_queue_length(), 9),
        }
