"""repro.obs.telemetry: streaming rollups, watchers, merging, dashboards.

The contracts under test:

* bounded memory — the per-series ring keeps at most ``capacity`` windows
  and accounts for everything it evicts (``dropped_windows``), while the
  run-wide totals and histogram never drop anything;
* associative merging — ``merge_rollups``/``merge_snapshots`` commute
  with how the samples were partitioned across workers, so ``--jobs 1``
  and ``--jobs N`` produce byte-identical aggregates;
* byte-identity — attaching telemetry to a stack never changes the
  simulated outcome: completion times and message counts match the
  uninstrumented run exactly (probes are pure reads);
* watchers — T501/T502/T503 fire on the pathologies they name, once per
  (code, series), and stay quiet on healthy runs.
"""
# simlint: disable-file=O301 -- tests drive the telemetry collector directly

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro import cli
from repro.core.comparison import make_stack
from repro.core.runner import Cell, ExperimentRunner
from repro.obs.dashboard import render_dashboard, render_html, sparkline
from repro.obs.telemetry import (
    SNAPSHOT_VERSION,
    SeriesRollup,
    Telemetry,
    TelemetryFinding,
    merge_rollups,
    merge_snapshots,
)
from repro.obs.bench import WORKLOADS
from repro.sim.kernel import Simulator


# ------------------------------------------------------------ SeriesRollup


def test_rollup_windows_and_run_totals():
    roll = SeriesRollup(width=1.0, capacity=8)
    for t, v in ((0.1, 2.0), (0.6, 4.0), (1.2, 6.0), (2.9, 1.0)):
        roll.record(t, v)
    assert roll.count == 4
    assert roll.total == pytest.approx(13.0)
    assert roll.min == 1.0 and roll.max == 6.0
    assert roll.mean == pytest.approx(13.0 / 4)
    assert roll.counts == [2, 1, 1]
    assert roll.sums == pytest.approx([6.0, 6.0, 1.0])
    assert roll.window_means() == pytest.approx([3.0, 6.0, 1.0])
    assert roll.dropped_windows == 0


def test_rollup_ring_evicts_oldest_but_keeps_totals():
    roll = SeriesRollup(width=1.0, capacity=4)
    for t in range(10):
        roll.record(t + 0.5, float(t))
    # Only the newest 4 windows survive...
    assert len(roll.counts) == 4
    assert roll.start == 6
    assert roll.dropped_windows == 6
    assert roll.window_means() == pytest.approx([6.0, 7.0, 8.0, 9.0])
    # ...but the run-wide aggregates saw every sample.
    assert roll.count == 10
    assert roll.total == pytest.approx(sum(range(10)))
    assert roll.min == 0.0 and roll.max == 9.0


def test_rollup_straggler_before_ring_clamps_into_oldest_window():
    roll = SeriesRollup(width=1.0, capacity=2)
    for t in (0.5, 1.5, 2.5, 3.5):
        roll.record(t, 1.0)
    assert roll.start == 2
    # A sample from an evicted window lands in the oldest live one.
    roll.record(0.25, 5.0)
    assert roll.counts[0] == 2
    assert roll.maxs[0] == 5.0
    assert roll.count == 5


def test_rollup_as_dict_round_trips_through_json():
    roll = SeriesRollup(width=0.5, capacity=4)
    for t in (0.1, 0.7, 1.9):
        roll.record(t, t * 3.0)
    doc = json.loads(json.dumps(roll.as_dict()))
    assert doc["width"] == 0.5
    assert doc["count"] == 3
    assert len(doc["counts"]) == len(doc["sums"])
    assert doc["hist"]["count"] == 3


# ----------------------------------------------------------------- merging


def _rollup_dict(samples, width=1.0, capacity=8):
    roll = SeriesRollup(width=width, capacity=capacity)
    for t, v in samples:
        roll.record(t, v)
    return roll.as_dict()


def test_merge_rollups_equals_single_stream():
    samples = [(0.1 * i, float(i % 7)) for i in range(1, 60)]
    whole = _rollup_dict(samples)
    left = _rollup_dict(samples[::2])
    right = _rollup_dict(samples[1::2])
    assert merge_rollups(left, right) == whole


def test_merge_rollups_is_associative_and_commutative():
    parts = [
        _rollup_dict([(0.3, 1.0), (1.1, 2.0)]),
        _rollup_dict([(0.9, 5.0), (2.4, 0.5)]),
        _rollup_dict([(1.6, 3.0)]),
    ]
    a, b, c = parts
    left = merge_rollups(merge_rollups(a, b), c)
    right = merge_rollups(a, merge_rollups(b, c))
    assert left == right
    assert merge_rollups(a, b) == merge_rollups(b, a)


def test_merge_rollups_clips_to_capacity_and_counts_drops():
    old = _rollup_dict([(0.5, 1.0)], capacity=2)
    new = _rollup_dict([(5.5, 2.0), (6.5, 3.0)], capacity=2)
    merged = merge_rollups(old, new)
    assert len(merged["counts"]) == 2
    # The union spans windows 0..6; only the newest 2 fit, so 5 windows
    # (one occupied, four empty gaps) fell off the merged ring.
    assert merged["dropped_windows"] == 5
    assert merged["count"] == 3            # totals still see everything
    assert merged["hist"]["count"] == 3


def test_merge_rollups_rejects_width_mismatch():
    with pytest.raises(ValueError):
        merge_rollups(_rollup_dict([], width=1.0),
                      _rollup_dict([], width=2.0))


def test_merge_snapshots_unions_series_and_dedups_findings():
    def snap(series_name, findings):
        return {
            "version": SNAPSHOT_VERSION,
            "samples": 3,
            "series": {series_name: {"tag": "gauge",
                                     "rollup": _rollup_dict([(0.5, 1.0)])}},
            "findings": findings,
        }

    finding = ["T501", "q", "queue grew"]
    merged = merge_snapshots([
        snap("a", [finding]),
        snap("b", [finding, ["T502", "u", "pegged"]]),
    ])
    assert merged["version"] == SNAPSHOT_VERSION
    assert merged["samples"] == 6
    assert sorted(merged["series"]) == ["a", "b"]
    assert merged["findings"] == [finding, ["T502", "u", "pegged"]]


def test_merge_snapshots_does_not_alias_inputs():
    base = {
        "version": SNAPSHOT_VERSION,
        "samples": 1,
        "series": {"s": {"tag": "gauge",
                         "rollup": _rollup_dict([(0.5, 1.0)])}},
        "findings": [],
    }
    other = json.loads(json.dumps(base))
    merged = merge_snapshots([base, other])
    merged["series"]["s"]["rollup"]["counts"][0] = 99
    assert base["series"]["s"]["rollup"]["counts"][0] == 1


def test_merge_snapshots_rejects_empty_and_version_skew():
    with pytest.raises(ValueError):
        merge_snapshots([])
    good = {"version": SNAPSHOT_VERSION, "samples": 0,
            "series": {}, "findings": []}
    bad = dict(good, version=SNAPSHOT_VERSION + 1)
    with pytest.raises(ValueError):
        merge_snapshots([good, bad])


# ----------------------------------------------------- Telemetry collector


def test_telemetry_samples_registered_series():
    sim = Simulator()
    telem = Telemetry(sim, interval=0.5, window=1.0, capacity=16)
    state = {"v": 0.0}
    telem.add_series("g", lambda: state["v"], kind="gauge", tag="gauge")
    telem.add_series("r", lambda: state["v"], kind="rate", tag="rate")
    telem.start()

    def work():
        for _ in range(8):
            state["v"] += 2.0
            yield sim.timeout(0.5)

    sim.run_process(work())
    snap = telem.snapshot()
    assert snap["version"] == SNAPSHOT_VERSION
    assert snap["samples"] >= 7
    gauge = snap["series"]["g"]["rollup"]
    assert gauge["max"] >= 8.0
    # rate = d(value)/dt with value growing 2.0 per 0.5 s -> ~4.0/s.
    rate = snap["series"]["r"]["rollup"]
    assert rate["max"] == pytest.approx(4.0, rel=0.01)


def test_series_added_after_start_is_sampled_from_the_next_tick():
    # The sampler starts with no series; a gauge and a rate registered
    # later are sampled from the next tick on, and the rate's baseline is
    # seeded at registration, so its first sample shows only the growth
    # since then (1 per tick), not the total accumulated before it.
    sim = Simulator()
    telem = Telemetry(sim, interval=1.0, window=1.0, capacity=16)
    telem.start()
    ticks = {"n": 0.0}

    def grow(steps):
        for _ in range(steps):
            ticks["n"] += 1.0
            yield sim.timeout(1.0)

    sim.run_process(grow(3))
    assert telem.samples == 3 and telem.series == {}
    next_tick = int(sim.now) + 1
    telem.add_series("late.gauge", lambda: ticks["n"], kind="gauge")
    telem.add_series("late.rate", lambda: ticks["n"], kind="rate",
                     tag="rate")
    sim.run_process(grow(5))
    gauge = telem.series["late.gauge"]
    rate = telem.series["late.rate"]
    assert gauge.start == rate.start == next_tick
    assert gauge.counts == rate.counts == [1] * 5
    assert gauge.sums == [4.0, 5.0, 6.0, 7.0, 8.0]
    assert rate.sums == [1.0] * 5


def test_telemetry_push_hooks_autocreate_series():
    sim = Simulator()
    telem = Telemetry(sim)
    telem.count("deliveries")
    telem.observe("depth", 7.0)
    snap = telem.snapshot()
    assert snap["series"]["deliveries"]["tag"] == "progress"
    assert snap["series"]["depth"]["rollup"]["max"] == 7.0


def test_telemetry_rejects_duplicates_and_bad_kind():
    telem = Telemetry(Simulator())
    telem.add_series("x", lambda: 0.0)
    with pytest.raises(ValueError):
        telem.add_series("x", lambda: 0.0)
    with pytest.raises(ValueError):
        telem.add_series("y", lambda: 0.0, kind="bogus")


def _watch_run(setup):
    """Drive a tiny sim long enough for the watcher cadence to engage."""
    sim = Simulator()
    telem = Telemetry(sim, interval=0.1, window=0.1, capacity=64)
    state = setup(telem)
    telem.start()

    def work():
        for step in range(120):
            state(step)
            yield sim.timeout(0.1)

    sim.run_process(work())
    return telem.snapshot()["findings"]


def test_watcher_t501_fires_on_unbounded_queue_growth():
    def setup(telem):
        depth = {"v": 0.0}
        telem.add_series("q", lambda: depth["v"], tag="queue")

        def step(i):
            depth["v"] = float(i)  # strictly growing, past the alarm depth
        return step

    findings = _watch_run(setup)
    assert ["T501", "q"] in [f[:2] for f in findings]
    # Fires once per (code, series), not once per watcher sweep.
    assert [f[:2] for f in findings].count(["T501", "q"]) == 1


def test_watcher_t502_fires_on_pegged_utilization():
    def setup(telem):
        telem.add_series("u", lambda: 1.0, tag="util")
        return lambda i: None

    findings = _watch_run(setup)
    assert ["T502", "u"] in [f[:2] for f in findings]


def test_watcher_t503_fires_on_stalled_progress_with_queued_work():
    def setup(telem):
        telem.add_series("q", lambda: 5.0, tag="queue")

        def step(i):
            if i < 5:
                telem.count("done")  # progress early on, then silence
        return step

    findings = _watch_run(setup)
    # T503 is a cross-series verdict, reported under the synthetic
    # "progress" series id rather than any one counter.
    assert ["T503", "progress"] in [f[:2] for f in findings]


def test_watchers_stay_quiet_on_healthy_series():
    def setup(telem):
        depth = {"v": 0.0}
        telem.add_series("q", lambda: depth["v"], tag="queue")
        telem.add_series("u", lambda: 0.4, tag="util")

        def step(i):
            depth["v"] = float(i % 3)  # bounded queue
            telem.count("done")        # steady progress
        return step

    assert _watch_run(setup) == []


# ------------------------------------------------------- stack integration


def test_stack_telemetry_covers_every_tier():
    stack = make_stack("nfsv3", telemetry=True)
    names = set(stack.telemetry.series)
    assert {"client.cpu.util", "server.cpu.util", "net.link.MBps",
            "server.disk00.util", "server.disk00.queue",
            "server.raid.degraded_s", "client.rpc.calls_s",
            "server.rpc.served_s", "server.cache.hits_s"} <= names
    stack.run(WORKLOADS["smoke"](stack.client), name="smoke")
    snap = stack.telemetry.snapshot()
    assert snap["samples"] > 0
    assert snap["series"]["server.cpu.util"]["rollup"]["count"] > 0
    # Utilization probes are normalized busy fractions.
    assert 0.0 <= snap["series"]["server.cpu.util"]["rollup"]["max"] <= 1.0


def test_iscsi_stack_has_initiator_series():
    stack = make_stack("iscsi", telemetry=True)
    assert "client.iscsi.inflight" in stack.telemetry.series
    assert "client.cache.hits_s" in stack.telemetry.series


@pytest.mark.parametrize("kind", ["nfsv3", "iscsi"])
def test_telemetry_run_is_byte_identical(kind):
    def run(telemetry):
        stack = make_stack(kind, telemetry=telemetry)
        stack.run(WORKLOADS["smoke"](stack.client), name="smoke")
        counters = stack.transport.counters
        return (round(stack.sim.now, 12),
                counters.requests, counters.replies)

    assert run(False) == run(True)


# ---------------------------------------------------- runner + jobs merging


def _dash_cells():
    return [
        Cell("smoke/%s" % kind, "telemetry_run",
             {"kind": kind, "workload": "smoke"})
        for kind in ("nfsv3", "iscsi")
    ]


def test_runner_strips_telemetry_key_and_merges(tmp_path):
    runner = ExperimentRunner(cache_dir=str(tmp_path), use_cache=False)
    results = runner.run(_dash_cells())
    for result in results.values():
        assert "__telemetry__" not in result
        assert result["completion_time_s"] > 0
    assert len(runner.telemetry_by_cell) == 2
    assert runner.telemetry is not None
    assert runner.telemetry["samples"] == sum(
        snap["samples"] for snap in runner.telemetry_by_cell.values())


def test_jobs_1_and_jobs_4_rollups_and_dashboards_match(tmp_path):
    def run(jobs, cache):
        runner = ExperimentRunner(jobs=jobs, cache_dir=str(tmp_path / cache),
                                  use_cache=False)
        runner.run(_dash_cells())
        return runner

    serial = run(None, "serial")
    pooled = run(4, "pooled")
    assert serial.telemetry_by_cell == pooled.telemetry_by_cell
    assert serial.telemetry == pooled.telemetry
    # The rendered artifacts are byte-identical too.
    assert (render_dashboard(serial.telemetry, title="t")
            == render_dashboard(pooled.telemetry, title="t"))
    assert (render_html([("t", serial.telemetry)], title="t")
            == render_html([("t", pooled.telemetry)], title="t"))


# -------------------------------------------------------------- dashboards


def test_sparkline_scales_and_pads():
    line = sparkline([0.0, 0.5, 1.0, None], width=4, lo=0.0, hi=1.0)
    assert len(line) == 4
    assert line[0] == " " and line[2] == "@" and line[3] == " "
    assert sparkline([], width=5, lo=0.0, hi=1.0) == " " * 5


def test_render_dashboard_sections_and_findings():
    sim = Simulator()
    telem = Telemetry(sim, interval=0.1, window=0.2)
    telem.add_series("u", lambda: 0.5, tag="util")
    telem.add_series("q", lambda: 2.0, tag="queue")
    telem.start()
    sim.run_process(iter(sim.timeout(1.0) for _ in range(1)))
    snap = telem.snapshot()
    text = render_dashboard(snap, title="unit", width=20)
    assert "dash: unit" in text
    assert "utilization" in text and "queue depth" in text
    assert "watcher findings: none" in text
    assert text.endswith("\n")
    # Pure ASCII so CI `cmp` and log viewers never mangle it.
    text.encode("ascii")

    snap["findings"] = [["T501", "q", "queue grew without bound"]]
    flagged = render_dashboard(snap, title="unit", width=20)
    assert "T501" in flagged and "queue grew" in flagged


def test_render_html_is_self_contained():
    sim = Simulator()
    telem = Telemetry(sim, interval=0.1, window=0.2)
    telem.add_series("u", lambda: 0.5, tag="util")
    telem.start()
    sim.run_process(iter(sim.timeout(0.5) for _ in range(1)))
    html = render_html([("section <one>", telem.snapshot())], title="t&c")
    assert html.startswith("<!DOCTYPE html>")
    assert "<svg" in html and "<style>" in html
    # No external fetches: a single file you can open from an artifact.
    assert "http://" not in html and "https://" not in html
    # Titles are escaped.
    assert "section &lt;one&gt;" in html and "t&amp;c" in html


# --------------------------------------------------------------- heartbeat
# The runner's progress lines (ExperimentRunner(heartbeat=True)): the
# host-clock status output of a long run lives there, not in telemetry.


def test_heartbeat_rate_limited_beats_and_final(capsys, monkeypatch):
    from repro.core import runner as runner_module

    clock = iter([100.0, 101.9, 102.5, 103.0, 104.0])
    monkeypatch.setattr(runner_module, "time",
                        SimpleNamespace(monotonic=lambda: next(clock)))
    progress = runner_module._Progress()
    # The limiter is seeded at construction: silent within 2 s...
    progress(1, 10, 0)
    assert capsys.readouterr().err == ""
    # ...then one line per 2 s...
    progress(2, 10, 1)
    progress(3, 10, 1)
    assert capsys.readouterr().err == (
        "[hb runner] cells 2/10 (1 cached) wall=2.5s rate=0.80/s\n")
    # ...and a forced last line, whenever it comes.
    progress(3, 10, 1, force=True)
    assert capsys.readouterr().err == (
        "[hb runner] cells 3/10 (1 cached) wall=4.0s rate=0.75/s\n")


# --------------------------------------------------------------------- CLI


def test_cli_quick_stdout_identical_with_telemetry(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert cli.main(["quick"]) == 0
    plain = capsys.readouterr().out
    assert cli.main(["quick", "--telemetry"]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain
    assert "telemetry:" in captured.err


def test_cli_dash_renders_and_exports_html(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    html_path = tmp_path / "dash.html"
    assert cli.main(["dash", "smoke", "--stack", "nfsv3", "iscsi",
                     "--html", str(html_path)]) == 0
    out = capsys.readouterr().out
    assert "smoke on nfsv3" in out
    assert "smoke on iscsi" in out
    assert "merged across 2 stacks" in out
    html = html_path.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "smoke on nfsv3" in html


def test_finding_equality_and_repr():
    a = TelemetryFinding("T501", "q", "grew")
    b = TelemetryFinding("T501", "q", "grew")
    assert a == b
    assert a != TelemetryFinding("T502", "q", "grew")
    assert "T501" in repr(a)
