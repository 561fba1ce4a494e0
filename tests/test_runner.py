"""Tests for the parallel, cached experiment runner (repro.core.runner)."""

import json

import pytest

from repro.core.runner import (
    CELL_KINDS,
    Cell,
    ExperimentRunner,
    cell_key,
)

# Small, fast cells: one per stack kind, a millisecond-scale workload.
CELLS = [
    Cell("quick?nfsv3", "quick", {"kind": "nfsv3"}),
    Cell("quick?iscsi", "quick", {"kind": "iscsi"}),
    Cell("batching?16", "batching", {"op": "mkdir", "batch": 16}),
]


def test_merge_order_follows_cell_order_not_completion():
    results = ExperimentRunner(jobs=None, use_cache=False).run(CELLS)
    assert list(results) == [cell.id for cell in CELLS]


def test_parallel_results_byte_identical_to_serial():
    serial = ExperimentRunner(jobs=1, use_cache=False).run(CELLS)
    parallel = ExperimentRunner(jobs=4, use_cache=False).run(CELLS)
    dump = lambda r: json.dumps(r, sort_keys=True)  # noqa: E731
    assert dump(serial) == dump(parallel)


def test_cache_hit_on_rerun(tmp_path):
    runner = ExperimentRunner(jobs=None, cache_dir=str(tmp_path))
    first = runner.run(CELLS)
    assert runner.cache_hits == 0
    assert runner.cache_misses == len(CELLS)

    rerun = ExperimentRunner(jobs=None, cache_dir=str(tmp_path))
    second = rerun.run(CELLS)
    assert rerun.cache_hits == len(CELLS)
    assert rerun.cache_misses == 0
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True)


def test_cache_invalidated_by_param_change(tmp_path):
    cell = Cell("b16", "batching", {"op": "mkdir", "batch": 16})
    changed = Cell("b16", "batching", {"op": "mkdir", "batch": 64})
    assert cell_key(cell) != cell_key(changed)

    runner = ExperimentRunner(jobs=None, cache_dir=str(tmp_path))
    runner.run([cell])
    rerun = ExperimentRunner(jobs=None, cache_dir=str(tmp_path))
    results = rerun.run([changed])
    assert rerun.cache_hits == 0
    assert rerun.cache_misses == 1
    assert results["b16"] != runner.run([cell])["b16"]


def test_cache_invalidated_by_source_change(tmp_path, monkeypatch):
    """A result cached by older code is never served to newer code: the
    key folds in a digest of the package's sources."""
    from repro.core import runner as runner_module

    cell = CELLS[0]
    digest = runner_module.source_digest()
    assert len(digest) == 64 and digest == runner_module.source_digest()
    ExperimentRunner(jobs=None, cache_dir=str(tmp_path)).run([cell])
    key = cell_key(cell)

    monkeypatch.setattr(runner_module, "source_digest", lambda: "edited")
    assert cell_key(cell) != key
    rerun = ExperimentRunner(jobs=None, cache_dir=str(tmp_path))
    rerun.run([cell])
    assert rerun.cache_hits == 0
    assert rerun.cache_misses == 1


def test_no_cache_flag_recomputes(tmp_path):
    seed = ExperimentRunner(jobs=None, cache_dir=str(tmp_path))
    seed.run(CELLS[:1])
    runner = ExperimentRunner(jobs=None, cache_dir=str(tmp_path),
                              use_cache=False)
    runner.run(CELLS[:1])
    assert runner.cache_hits == 0
    assert runner.cache_misses == 1


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown cell kind"):
        ExperimentRunner(jobs=None, use_cache=False).run(
            [Cell("x", "no-such-kind", {})])


def test_duplicate_cell_ids_rejected():
    with pytest.raises(ValueError, match="duplicate cell id"):
        ExperimentRunner(jobs=None, use_cache=False).run(
            [CELLS[0], CELLS[0]])


def test_registered_kinds_cover_the_paper():
    for kind in ("quick", "syscall_table", "seqrand", "seqrand_table",
                 "postmark", "tpcc", "tpch", "kernel_tree", "batching",
                 "depth_point", "io_size_point", "sharing",
                 "metadata_cache", "bench_case"):
        assert kind in CELL_KINDS


def test_bench_suite_identical_across_runner_configs(tmp_path):
    from repro.obs import bench

    plain = bench.run_suite("quick")
    pooled = bench.run_suite(
        "quick", runner=ExperimentRunner(jobs=2, use_cache=False))
    cached_runner = ExperimentRunner(jobs=None, cache_dir=str(tmp_path))
    bench.run_suite("quick", runner=cached_runner)          # populate
    cached = bench.run_suite(
        "quick",
        runner=ExperimentRunner(jobs=None, cache_dir=str(tmp_path)))
    dump = lambda r: json.dumps(r, sort_keys=True)  # noqa: E731
    assert dump(plain) == dump(pooled) == dump(cached)
