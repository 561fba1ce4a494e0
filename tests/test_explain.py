"""repro.obs.explain: diff-engine invariants, flight recorder, renderers.

The engine's contracts, each asserted here:

* determinism — re-explaining the same pair is byte-identical in every
  output format;
* exact attribution — per-layer ``delta_ns`` values (including the
  ``(unattributed)`` remainder) sum exactly to the completion-time
  delta, on live and bench-derived sides alike;
* anti-symmetry — B-vs-A is the exact negation of A-vs-B, and the blame
  ranking is invariant under the swap;
* the paper's Table 4 story — explaining random writes on NFS vs iSCSI
  names message traffic (and its meta-data/journal component) as the top
  blame term;
* the flight recorder — bounded rings, evidence dumps on forced S403
  and T501 findings, and byte-identical runs when attached.
"""
# simlint: disable-file=O301,D104 -- tests drive recorder/telemetry hooks directly and assert exact sim times

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core.comparison import make_stack
from repro.obs import bench
from repro.obs.bench import relative_change
from repro.obs.explain import (
    FlightRecorder,
    explain_runs,
    format_explain,
    format_explain_json,
    render_explain_html,
    run_side,
    side_from_bench,
)
from repro.sim import Resource, Simulator
from repro.sim.stats import LatencyHistogram


@pytest.fixture(scope="module")
def randwrite_sides():
    return run_side("randwrite", "nfsv3"), run_side("randwrite", "iscsi")


@pytest.fixture(scope="module")
def randwrite_report(randwrite_sides):
    side_a, side_b = randwrite_sides
    return explain_runs(side_a, side_b)


# ------------------------------------------------------------ diff engine


def _layer_sum(report):
    return sum(entry["delta_ns"] for entry in report["layers"])


@pytest.mark.parametrize("kinds", [("nfsv3", "iscsi"), ("nfsv2", "nfsv4")])
def test_layer_deltas_sum_exactly_live(kinds):
    report = explain_runs(run_side("smoke", kinds[0]),
                          run_side("smoke", kinds[1]))
    assert _layer_sum(report) == report["delta"]["completion_time_ns"]


def test_layer_deltas_sum_exactly_randwrite(randwrite_report):
    delta = randwrite_report["delta"]["completion_time_ns"]
    assert _layer_sum(randwrite_report) == delta
    assert delta != 0  # the Table 4 gap is real, not a vacuous 0 == 0


def test_reexplain_is_byte_identical():
    reports = [explain_runs(run_side("smoke", "nfsv3"),
                            run_side("smoke", "iscsi"))
               for _ in range(2)]
    assert format_explain_json(reports[0]) == format_explain_json(reports[1])
    assert format_explain(reports[0]) == format_explain(reports[1])
    assert render_explain_html(reports[0]) == render_explain_html(reports[1])


def test_swap_negates_every_delta(randwrite_sides):
    side_a, side_b = randwrite_sides
    ab = explain_runs(side_a, side_b)
    ba = explain_runs(side_b, side_a)
    for key in ("completion_time_ns", "messages", "bytes",
                "retransmissions"):
        assert ba["delta"][key] == -ab["delta"][key]
    forward = {entry["layer"]: entry["delta_ns"] for entry in ab["layers"]}
    backward = {entry["layer"]: entry["delta_ns"] for entry in ba["layers"]}
    assert backward == {name: -delta for name, delta in forward.items()}
    # Symmetric scores: the ranking survives the swap bit-for-bit.
    assert ([(e["kind"], e["name"], e["score"]) for e in ba["blame"]]
            == [(e["kind"], e["name"], e["score"]) for e in ab["blame"]])


def test_table4_randwrite_blames_message_traffic(randwrite_report):
    top = randwrite_report["blame"][0]
    assert top["kind"] == "messages"
    assert "meta-data/journal" in top["verdict"]
    # The same verdict leads the report's plain-English summary (after
    # the headline line).
    assert top["verdict"] in randwrite_report["verdicts"]


def test_randwrite_op_drift_shape(randwrite_report):
    ops = {entry["op"]: entry for entry in randwrite_report["ops"]}
    # NFS pays per-page synchronous WRITEs; iSCSI batches into few
    # SCSI_WRITEs — the drift the paper's explanation turns on.
    assert ops["WRITE"]["family"] == "data"
    assert ops["WRITE"]["delta"]["requests"] < 0
    assert ops["SCSI_WRITE"]["delta"]["requests"] > 0
    meta = randwrite_report["meta_messages"]
    assert meta["delta"] == meta["b"] - meta["a"]
    assert meta["a"] > 0  # CREATE/LOOKUP/GETATTR/COMMIT traffic on NFS


def test_bench_mode_sides():
    record_a = bench.run_case("smoke", "nfsv3")
    record_b = bench.run_case("smoke", "iscsi")
    report = explain_runs(side_from_bench(record_a),
                          side_from_bench(record_b))
    # Bench documents carry totals only: no per-op drift section.
    assert report["ops"] is None
    assert report["meta_messages"] is None
    assert report["a"]["label"] == "nfsv3"
    assert report["b"]["label"] == "iscsi"
    assert _layer_sum(report) == report["delta"]["completion_time_ns"]
    labeled = side_from_bench(record_a, label="baseline:smoke/nfsv3")
    assert labeled["label"] == "baseline:smoke/nfsv3"


def test_telemetry_deltas_present_when_both_sides_carry():
    report = explain_runs(run_side("smoke", "nfsv3", telemetry=True),
                          run_side("smoke", "iscsi", telemetry=True))
    assert report["telemetry"] is not None
    assert report["telemetry"]  # at least one series on either side
    names = [entry["series"] for entry in report["telemetry"]]
    assert names == sorted(names)
    mixed = explain_runs(run_side("smoke", "nfsv3", telemetry=True),
                         run_side("smoke", "iscsi"))
    assert mixed["telemetry"] is None


def test_json_report_round_trips():
    report = explain_runs(run_side("smoke", "nfsv3"),
                          run_side("smoke", "iscsi"))
    assert json.loads(format_explain_json(report)) == report
    assert report["version"] == 1
    assert report["workload"] == "smoke"


# --------------------------------------------------------- flight recorder


def test_flight_recorder_rings_are_bounded():
    sim = SimpleNamespace(now=0.25)
    with pytest.raises(ValueError):
        FlightRecorder(sim, capacity=0)
    recorder = FlightRecorder(sim, capacity=4)
    for i in range(10):
        recorder.note_event((float(i), i, 0,
                             SimpleNamespace(name="proc%d" % i)))
    assert len(recorder.events) == 4
    context = recorder.context()
    assert [e["target"] for e in context["events"]] \
        == ["proc6", "proc7", "proc8", "proc9"]
    assert all(e["kind"] == "event" for e in context["events"])
    dump = recorder.dump("S999", "test", "forced")
    assert recorder.dumps == [dump]
    assert dump["code"] == "S999" and dump["context"]["events"]


def test_flight_recorder_names_fallbacks():
    recorder = FlightRecorder(SimpleNamespace(now=0.0))
    recorder.note_event((0.0, 0, 1, lambda _arg: None, None))
    recorder.note_event((0.0, 1, 2, 1234, None))
    targets = [entry[3] for entry in recorder.events]
    assert "lambda" in targets[0]
    assert targets[1] == "int"


def test_flight_recorder_names_the_process_a_hold_end_resumes():
    sim = Simulator()
    recorder = sim.recorder = FlightRecorder(sim)
    cpu = Resource(sim, capacity=1, name="cpu")

    def worker():
        yield from cpu.use(1.0)     # uncontended: the release record
        yield from cpu.use(1.0)

    def rival():
        yield from cpu.use(0.5)     # queued: granted, then released

    sim.spawn(worker(), name="worker")
    sim.spawn(rival(), name="rival")
    sim.run()
    events = recorder.context()["events"]
    assert [(e["t"], e["kind"], e["target"]) for e in events
            if e["kind"] == "release"] == [
        (1.0, "release", "worker"), (1.5, "release", "rival"),
        (2.5, "release", "worker")]
    assert [e["kind"] for e in events if e["target"] == "Resource._grant"] \
        == ["call1", "call1"]


def test_forced_s403_ships_recorder_evidence():
    import heapq

    stack = make_stack("nfsv3", san=True, recorder=True)

    def tiny(client):
        fd = yield from client.creat("/f")
        yield from client.write(fd, 8192)
        yield from client.close(fd)

    stack.run(tiny(stack.client), name="tiny")
    assert stack.sim.now > 0
    # Corrupt the calendar: a record stamped before the current clock.
    heapq.heappush(stack.sim._calendar,
                   (0.0, -1, 1, lambda _arg: None, None))
    stack.sim.run(until=stack.sim.now + 1.0)
    findings = stack.check(strict=False)
    assert any(f.code == "S403" for f in findings)
    dumps = [d for d in stack.recorder.dumps if d["code"] == "S403"]
    assert dumps
    assert dumps[0]["source"] == "simsan"
    assert dumps[0]["context"]["events"]  # non-empty evidence window


def test_forced_t501_ships_recorder_evidence():
    from repro.obs.telemetry import Telemetry
    from repro.sim import Simulator

    sim = Simulator()
    telemetry = Telemetry(sim)
    recorder = sim.recorder = FlightRecorder(sim)
    recorder.note_event((0.0, 0, 0, SimpleNamespace(name="seed")))
    telemetry.observe("disk.queue", 10.0)
    telemetry.tags["disk.queue"] = "queue"
    rollup = telemetry.series["disk.queue"]
    for i in range(1, 9):   # strictly growing windows, past alarm depth
        rollup.record(i * telemetry.window, 10.0 + i)
    telemetry._run_watchers(9 * telemetry.window)
    assert any(f.code == "T501" for f in telemetry.findings)
    dumps = [d for d in recorder.dumps if d["code"] == "T501"]
    assert dumps
    assert dumps[0]["source"] == "disk.queue"
    assert dumps[0]["context"]["events"]


def test_recorder_attached_run_is_identical():
    def run(kind, **kwargs):
        stack = make_stack(kind, **kwargs)
        stack.run(bench.WORKLOADS["smoke"](stack.client), name="smoke")
        stack.quiesce()
        return stack

    plain = run("nfsv3")
    recorded = run("nfsv3", recorder=True)
    assert plain.recorder is None
    assert recorded.recorder is not None
    # Observe-only: same simulated clock, same event sequence length.
    assert recorded.now == plain.now
    assert recorded.sim._sequence == plain.sim._sequence
    # But the rings saw the run: kernel events and both wire directions.
    assert recorded.recorder.events
    directions = {entry[1] for entry in recorded.recorder.messages}
    assert directions == {"c2s", "s2c"}
    assert recorded.recorder.dumps == []  # clean run: no findings


# ---------------------------------------------------- renderers + folding


def test_format_explain_sections(randwrite_report):
    text = format_explain(randwrite_report)
    assert text.startswith("== repro explain: randwrite  a=nfsv3  b=iscsi")
    for section in ("-- totals", "-- layer attribution",
                    "-- message drift per op", "-- blame", "-- verdict"):
        assert section in text
    assert text.endswith("\n")
    html = render_explain_html(randwrite_report)
    assert html.startswith("<!DOCTYPE html>") and html.endswith("</html>\n")
    assert "blame" in html and "(unattributed)" in html


# ------------------------------------------- satellite: histogram + ratios


def test_histogram_percentile_empty_and_single_sample():
    hist = LatencyHistogram()
    assert hist.percentile(0.5) == 0.0
    assert hist.percentile(0.0) == 0.0
    hist.record(0.003)
    for fraction in (0.0, 0.5, 0.95, 1.0):
        assert hist.percentile(fraction) == 0.003


def test_histogram_percentile_partial_restore_stays_defined():
    hist = LatencyHistogram()
    hist.record(0.001)
    hist.record(0.004)
    document = hist.as_dict()
    document.pop("min")
    document.pop("max")
    restored = LatencyHistogram.from_dict(document)
    assert restored.min is None and restored.max is None
    low = restored.percentile(0.0)
    high = restored.percentile(1.0)
    assert 0.0 < low <= 0.001          # bucket floor, not a bogus 0.0
    assert high >= 0.004               # bucket edge above the true max


def test_relative_change_zero_baselines():
    assert relative_change(0, 0) == 0.0
    assert relative_change(0, 5) == "new"
    assert relative_change(4, 6) == 0.5
    assert relative_change(4, 2) == -0.5
