"""The server-farm storm: committed points, queueing laws, CLI, schema."""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro import cli
from repro.obs.bench import (SCALE_SCHEMA_VERSION, compare_scale_documents,
                             load_bench)
from repro.sim.farm import FARM_PROTOCOLS, run_farm


# -- the storm itself ----------------------------------------------------------


def test_farm_validates_parameters():
    with pytest.raises(ValueError):
        run_farm(protocol="smb")
    with pytest.raises(ValueError):
        run_farm(nclients=0)
    with pytest.raises(ValueError):
        run_farm(nservers=0)
    with pytest.raises(ValueError):
        run_farm(connections=0)
    with pytest.raises(ValueError):
        run_farm(sharing=-0.1)
    with pytest.raises(ValueError):
        run_farm(sharing=1.5)
    with pytest.raises(ValueError):
        run_farm(requests=0)
    assert FARM_PROTOCOLS == ("nfs", "iscsi")


def test_flat_farm_reproduces_committed_points():
    """The 64-client points of the committed BENCH_scale.json, field for
    field: the farm's numbers are pinned here, not only in CI."""
    path = os.path.join(os.path.dirname(__file__), "..", "BENCH_scale.json")
    points = [point for point in load_bench(path)["points"]
              if point["clients"] == 64]
    assert len(points) == 8
    for point in points:
        result = run_farm(protocol=point["protocol"], nclients=64,
                          nservers=point["servers"],
                          connections=point["connections"],
                          sharing=point["sharing"], requests=20)
        for field, value in point.items():
            if field != "id":
                assert result[field] == value, (point["id"], field)


def test_farm_nfs_pays_layout_round_trips_and_iscsi_does_not():
    nfs = run_farm(protocol="nfs", nclients=8, nservers=2, requests=6)
    block = run_farm(protocol="iscsi", nclients=8, nservers=2, requests=6)
    assert nfs["layout_gets"] > 0
    assert block["layout_gets"] == 0
    # Same I/O count, but NFS additionally pays the metadata messages.
    assert nfs["completed"] == block["completed"]
    assert nfs["messages"] > block["messages"]


def test_farm_littles_law_holds_at_saturation():
    """At a saturated server the queue builds, and the queue-length
    integral equals the summed waits (Little's law, exact in the DES)."""
    result = run_farm(protocol="nfs", nclients=64, nservers=1,
                      connections=1, requests=4, think=0.0005)
    row = result["per_server"][0]
    assert row["utilization"] > 0.9
    assert row["mean_queue"] > 5.0
    assert row["littles_residual"] < 1e-6
    assert row["mean_wait"] > 0.0


def test_farm_mcs_connections_raise_throughput():
    """More channels per client -> more overlap -> higher throughput,
    the effect MC/S exists for."""
    one = run_farm(protocol="iscsi", nclients=16, nservers=4,
                   connections=1, requests=8)
    four = run_farm(protocol="iscsi", nclients=16, nservers=4,
                    connections=4, requests=8)
    assert four["makespan"] < one["makespan"]
    assert four["throughput"] > one["throughput"]


def test_farm_striping_spreads_load():
    result = run_farm(protocol="nfs", nclients=12, nservers=4, requests=6)
    assert len(result["per_server"]) == 4
    assert all(row["io_served"] > 0 for row in result["per_server"])
    # Only the MDS (server 0) answers LAYOUTGET.
    assert result["per_server"][0]["layout_served"] == result["layout_gets"]
    assert all(row["layout_served"] == 0
               for row in result["per_server"][1:])


# -- the CLI -------------------------------------------------------------------


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


FARM_ARGS = ["scale", "--protocol", "nfs", "--nclients", "6",
             "--servers", "2", "--connections", "2", "--requests", "4"]


def test_cli_farm_validation_exit_codes():
    cases = [
        ["scale", "--nclients", "0"],
        ["scale", "--servers", "0"],
        ["scale", "--connections", "-1"],
        ["scale", "--sharing", "1.5"],
        ["scale", "--requests", "0"],
    ]
    for argv in cases:
        code, _out, err = _run_cli(argv)
        assert code == 2, argv
        assert "must be" in err, argv


def test_cli_farm_document_compares_exactly(tmp_path):
    first = str(tmp_path / "a.json")
    second = str(tmp_path / "b.json")
    assert _run_cli(FARM_ARGS + ["--out", first])[0] == 0
    assert _run_cli(FARM_ARGS + ["--out", second])[0] == 0
    code, out, _ = _run_cli(["scale", "--compare", first, second])
    assert code == 0
    assert "identical" in out

    document = load_bench(second)
    assert document["schema"] == SCALE_SCHEMA_VERSION
    assert document["kind"] == "farm"
    assert len(document["points"]) == 1
    assert document["points"][0]["id"] == "nfs/s2/x2/n6"
    document["points"][0]["messages"] += 1
    with open(second, "w") as handle:
        json.dump(document, handle)
    code, out, _ = _run_cli(["scale", "--compare", first, second])
    assert code == 1
    assert "messages" in out

    code, _out, err = _run_cli(["scale", "--compare", first,
                                str(tmp_path / "missing.json")])
    assert code == 2
    assert "cannot read" in err


def test_cli_farm_series_reports_scaling_laws(tmp_path):
    out_file = str(tmp_path / "farm.json")
    code, _out, _err = _run_cli(
        ["scale", "--protocol", "nfs", "--nclients", "4", "16",
         "--servers", "2", "--connections", "1", "--requests", "4",
         "--out", out_file])
    assert code == 0
    series = load_bench(out_file)["series"]["nfs/s2/x1"]
    assert len(series["efficiency"]) == 2
    assert series["efficiency"][0] == [4, 1.0]
    assert series["message_exponent"] is not None
    # Message counts grow roughly linearly with clients here.
    assert 0.5 < series["message_exponent"] < 1.5


# -- the schema comparator -----------------------------------------------------


def _document(points, series=None, schema=SCALE_SCHEMA_VERSION):
    return {"schema": schema, "points": points, "series": series or {}}


def test_compare_scale_documents_is_exact():
    point = {"id": "nfs/s1/x1/n4", "messages": 32, "makespan": 0.5}
    base = _document([point])
    assert compare_scale_documents(base, _document([dict(point)])) == []

    drifted = dict(point, messages=34)
    problems = compare_scale_documents(base, _document([drifted]))
    assert problems and "messages" in problems[0]

    assert compare_scale_documents(base, _document([]))  # missing point
    extra = _document([point, {"id": "nfs/s1/x1/n8", "messages": 64}])
    assert any("not in baseline" in problem
               for problem in compare_scale_documents(base, extra))

    mismatch = compare_scale_documents(base, _document([point], schema=1))
    assert mismatch == ["schema: %r -> 1" % SCALE_SCHEMA_VERSION]

    series_drift = compare_scale_documents(
        _document([point], series={"nfs/s1/x1": {"saturation_clients": None}}),
        _document([point], series={"nfs/s1/x1": {"saturation_clients": 8}}))
    assert any("series" in problem for problem in series_drift)
