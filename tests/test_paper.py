"""Tests for the paper-artifact registry (repro.paper) and `repro verify`."""

import inspect
import json
import os
import re
import subprocess
import sys

import pytest

from repro import cli, paper
from repro.core.runner import CELL_KINDS, make_cell

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
EXPERIMENTS = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")


def _registry_with(*claims):
    """A one-entry registry over one cheap cell."""
    return (paper.Artifact("smoke", "Smoke (quick nfsv3)", claims=claims),)


CHEAP = {"smoke": make_cell("quick", kind="nfsv3")}
PASSING = paper.Claim(
    "smoke.sends", "a smoke run sends messages", CHEAP,
    lambda r: ({"messages": r["smoke"]["messages"]},
               r["smoke"]["messages"] > 0))
FAILING = paper.Claim(
    "smoke.silent", "a smoke run sends nothing", CHEAP,
    lambda r: ({"messages": r["smoke"]["messages"]},
               r["smoke"]["messages"] == 0))
DEVIATION = paper.Claim(
    "smoke.huge", "a smoke run sends a million messages", CHEAP,
    lambda r: ({"messages": r["smoke"]["messages"]},
               r["smoke"]["messages"] > 10 ** 6),
    deviation="the smoke workload is tiny")


def _scoreboard_rows(text):
    return [line for line in text.splitlines() if line.startswith("| Smoke")]


def test_verify_exit_codes_and_scoreboard(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(paper, "ARTIFACTS",
                        _registry_with(PASSING, FAILING, DEVIATION))
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    rows = _scoreboard_rows(out)
    assert len(rows) == 3
    assert rows[0].endswith("| holds |") and "`smoke.sends`" in rows[0]
    assert rows[1].endswith("| FAILS |") and "`smoke.silent`" in rows[1]
    assert rows[2].endswith("| deviation |") and "`smoke.huge`" in rows[2]
    assert "FAILED smoke.silent" in out
    assert "deviation smoke.huge: the smoke workload is tiny" in out

    # Without the failing claim the gate passes; the deviation never
    # fails it, and the cell now comes from the cache.
    monkeypatch.setattr(paper, "ARTIFACTS", _registry_with(PASSING, DEVIATION))
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert len(_scoreboard_rows(out)) == 2
    assert "1 cells (1 cached, 0 computed)" in out


def _all_cells():
    for entry in paper.ARTIFACTS:
        for cell in entry.default_cells():
            yield entry.section, cell
        for claim in entry.claims:
            for cell in claim.cells.values():
                yield claim.id, cell


def test_claim_cells_are_registered_json_cells():
    params_by_id = {}
    for owner, cell in _all_cells():
        assert cell.kind in CELL_KINDS, owner
        assert json.loads(json.dumps(cell.params)) == cell.params, owner
        inspect.signature(CELL_KINDS[cell.kind]).bind(**cell.params)
        assert params_by_id.setdefault(cell.id, cell.params) == cell.params
        assert cell.id == make_cell(cell.kind, **cell.params).id


def test_claim_ids_are_unique_and_every_entry_is_checked():
    ids = [claim.id for entry in paper.ARTIFACTS for claim in entry.claims]
    assert len(ids) == len(set(ids))
    for entry in paper.ARTIFACTS:
        if entry.section != "quick":
            assert any(not claim.deviation for claim in entry.claims), entry


@pytest.mark.parametrize("argv, golden", [
    (["table2", "--depth", "0"], "table2_depth0.txt"),
    (["table3"], "table3.txt"),
    (["fig3", "--op", "stat"], "fig3_op_stat.txt"),
    (["fig5"], "fig5.txt"),
])
def test_artifact_stdout_matches_golden(argv, golden, capsys):
    assert cli.main(argv) == 0
    with open(os.path.join(GOLDEN, golden)) as handle:
        assert capsys.readouterr().out == handle.read()


def test_experiments_scoreboard_matches_registry():
    with open(EXPERIMENTS) as handle:
        text = handle.read()
    section = text.split("## Summary scoreboard", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines()
            if line.startswith("| ") and not line.startswith("| artifact")]
    expected = [[entry.title, "`%s`" % claim.id, claim.finding]
                for entry in paper.ARTIFACTS for claim in entry.claims]
    assert [row[:3] for row in rows] == expected


def test_import_repro_leaves_registry_and_runner_unloaded():
    code = ("import sys, repro; print(sorted(m for m in sys.modules if m in "
            "('repro.cli', 'repro.paper', 'repro.core.runner')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                             sys.path))).stdout
    assert out.strip() == "[]"


def test_list_names_every_artifact_command(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    listed = re.search(r"artifacts:(.*?)tools:", out, re.S).group(1).split()
    assert listed == [command for entry in paper.ARTIFACTS
                      for command in entry.commands]
