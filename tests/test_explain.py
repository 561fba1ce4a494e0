"""repro.obs.explain: diff-engine invariants and renderers.

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
  blame term.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import bench
from repro.obs.bench import relative_change
from repro.obs.explain import (
    explain_runs,
    format_explain,
    format_explain_json,
    render_explain_html,
    run_side,
    side_from_bench,
)
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
