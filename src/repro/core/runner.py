"""Parallel, cached experiment engine.

Every artifact in the paper reproduction — the tables, the figures, the
Section-7 what-ifs, and the ``repro bench`` suites — decomposes into
*cells*: pure, independent computations of the form ``kind(**params) ->
JSON-able result`` (one stack x workload x parameter point).  Cells never
share simulator state, so they parallelize perfectly, exactly like the
independent transfer streams that gave the related iSCSI work its
throughput wins.

:class:`ExperimentRunner` executes a list of :class:`Cell` specs:

* **fan-out** — cells run on a ``concurrent.futures.ProcessPoolExecutor``
  when ``jobs > 1`` (in-process when ``jobs`` is 1/None, so tests and
  debugging stay single-process);
* **deterministic merge** — results are keyed and ordered by cell id,
  never by completion order, so ``--jobs 1`` and ``--jobs 8`` produce
  byte-identical merged output;
* **content-addressed cache** — each result is stored on disk under
  ``sha256(repro version + source digest + cell kind + params)``;
  re-running an unchanged cell is a file read.  Any change to the
  package's ``.py`` sources, its version or a cell's parameters changes
  the key and forces a recompute.

Every cell result is canonicalized through a JSON round-trip before it is
merged, so fresh, pooled, and cached results are structurally identical
(e.g. integer dict keys always come back as strings).

The built-in cell kinds cover every experiment the CLI can run; new
kinds register with :func:`cell_kind` (the function must be importable
from a module top level so pool workers can find it).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Cell",
    "ExperimentRunner",
    "CELL_KINDS",
    "cell_kind",
    "cell_key",
    "default_cache_dir",
    "make_cell",
    "source_digest",
]


# -- cell specs ---------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One pure experiment cell: ``CELL_KINDS[kind](**params)``.

    ``id`` is the stable merge key (results are ordered by the position of
    the cell in the submitted list and keyed by ``id``); ``params`` must
    be JSON-serializable.
    """

    id: str
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)


def make_cell(kind: str, /, **params: Any) -> Cell:
    """A cell with a canonical id derived from its kind and params."""
    spec = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return Cell("%s?%s" % (kind, spec), kind, params)


CELL_KINDS: Dict[str, Callable[..., Any]] = {}


def cell_kind(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a cell-kind function under ``name`` (decorator)."""

    def register(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in CELL_KINDS:
            raise ValueError("cell kind %r already registered" % (name,))
        CELL_KINDS[name] = fn
        return fn

    return register


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 over the path and bytes of every ``.py`` file in the package.

    Computed once per process, on first use.  :func:`cell_key` folds it
    in, so an edit anywhere in the simulator retires every cached result
    computed by the old code.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def cell_key(cell: Cell) -> str:
    """Content-addressed cache key: version + source digest + kind + params."""
    from .. import __version__

    spec = json.dumps(
        {"version": __version__, "source": source_digest(),
         "kind": cell.kind, "params": cell.params},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(spec.encode()).hexdigest()


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def _execute_cell(spec: Tuple[str, str, str]) -> Tuple[str, Any]:
    """Pool worker: run one cell from its JSON spec; returns (id, result).

    Module-level so it pickles; results are canonicalized through JSON so
    a pooled result is byte-for-byte the same as an in-process one.
    """
    cell_id, kind, params_json = spec
    fn = CELL_KINDS[kind]
    result = fn(**json.loads(params_json))
    return cell_id, json.loads(json.dumps(result))


class _Progress:
    """``[hb runner]`` progress lines on stderr for long runs.

    At most one line per 2 wall seconds, counted from construction, and
    a forced last line.  It reads the host clock, which is what "is this
    run stuck?" means, and writes only to stderr: status, never a result.
    """

    def __init__(self):
        start = time.monotonic()  # simlint: disable=D101 (wall progress)
        self._start = self._last = start

    def __call__(self, done: int, total: int, cached: int,
                 force: bool = False) -> None:
        wall = time.monotonic()  # simlint: disable=D101 (wall progress)
        if not force and wall - self._last < 2.0:
            return
        self._last = wall
        elapsed = wall - self._start
        rate = done / elapsed if elapsed > 0 else 0.0
        print("[hb runner] cells %d/%d (%d cached) wall=%.1fs rate=%.2f/s"
              % (done, total, cached, elapsed, rate), file=sys.stderr)


class ExperimentRunner:
    """Run experiment cells with optional parallelism and result caching.

    ``jobs``     — worker processes; ``None`` or 1 runs in-process.
    ``cache_dir``— result cache location (:func:`default_cache_dir`).
    ``use_cache``— when False, neither reads nor writes the cache.
    ``heartbeat``— when True, print cell/cache progress lines to stderr
                   (``[hb runner] cells done/total (cached) wall= rate=``,
                   at most one per 2 wall seconds plus a last one); status
                   only, never part of the merged results.

    Cells that carry telemetry attach their snapshot under the reserved
    result key ``"__telemetry__"``.  :meth:`run` strips those snapshots
    out of the merged results (so documents like ``BENCH_quick.json``
    never see them) into :attr:`telemetry_by_cell`, and folds them — in
    submitted-cell order, associatively — into one aggregated
    :attr:`telemetry` snapshot.  The fold is pure dict arithmetic on
    canonicalized snapshots, so ``--jobs 1`` and ``--jobs 8`` aggregate
    byte-identically.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 use_cache: bool = True,
                 heartbeat: bool = False):
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
        self.use_cache = use_cache
        self.heartbeat = heartbeat
        self.cache_hits = 0
        self.cache_misses = 0
        self.telemetry: Optional[Dict[str, Any]] = None
        self.telemetry_by_cell: Dict[str, Any] = {}

    # -- cache ----------------------------------------------------------------

    def _cache_path(self, cell: Cell) -> str:
        return os.path.join(self.cache_dir, cell_key(cell) + ".json")

    def cache_get(self, cell: Cell) -> Optional[Any]:
        """Return the cached result for ``cell``, or None."""
        if not self.use_cache:
            return None
        path = self._cache_path(cell)
        try:
            with open(path) as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return None
        return document.get("result")

    def cache_put(self, cell: Cell, result: Any) -> None:
        """Store ``result`` for ``cell`` (atomic rename, best-effort)."""
        if not self.use_cache:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        path = self._cache_path(cell)
        tmp = path + ".tmp.%d" % os.getpid()
        document = {"cell": cell.id, "kind": cell.kind,
                    "params": cell.params, "result": result}
        try:
            with open(tmp, "w") as handle:
                json.dump(document, handle, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- running --------------------------------------------------------------

    def run(self, cells: Iterable[Cell]) -> "Dict[str, Any]":
        """Execute every cell; return ``{cell.id: result}`` in cell order.

        Cached cells are served from disk; the rest fan out over the pool
        (or run inline).  The merge is deterministic: insertion order is
        the submitted cell order regardless of completion order.
        """
        cells = list(cells)
        seen = set()
        for cell in cells:
            if cell.kind not in CELL_KINDS:
                raise ValueError("unknown cell kind %r" % (cell.kind,))
            if cell.id in seen:
                raise ValueError("duplicate cell id %r" % (cell.id,))
            seen.add(cell.id)

        progress = _Progress() if self.heartbeat else None

        resolved: Dict[str, Any] = {}
        pending: List[Cell] = []
        for cell in cells:
            cached = self.cache_get(cell)
            if cached is not None:
                self.cache_hits += 1
                resolved[cell.id] = cached
            else:
                self.cache_misses += 1
                pending.append(cell)

        if pending:
            if self.jobs is None or self.jobs <= 1 or len(pending) == 1:
                for cell in pending:
                    _cell_id, result = _execute_cell(self._spec(cell))
                    self.cache_put(cell, result)
                    resolved[cell.id] = result
                    if progress is not None:
                        progress(len(resolved), len(cells), self.cache_hits)
            else:
                by_id = {cell.id: cell for cell in pending}
                with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                    futures = {pool.submit(_execute_cell, self._spec(cell))
                               for cell in pending}
                    while futures:
                        done, futures = wait(futures,
                                             return_when=FIRST_COMPLETED)
                        for future in done:
                            cell_id, result = future.result()
                            self.cache_put(by_id[cell_id], result)
                            resolved[cell_id] = result
                        if progress is not None:
                            progress(len(resolved), len(cells),
                                     self.cache_hits)
        if progress is not None:
            progress(len(resolved), len(cells), self.cache_hits, force=True)

        # Deterministic merge: submitted order, never completion order.
        merged = {cell.id: resolved[cell.id] for cell in cells}
        self._collect_telemetry(cells, merged)
        return merged

    def _collect_telemetry(self, cells: List[Cell],
                           merged: Dict[str, Any]) -> None:
        """Strip ``"__telemetry__"`` snapshots out of results and fold them.

        Per-cell snapshots land in :attr:`telemetry_by_cell`; the
        aggregate (folded in submitted-cell order) in :attr:`telemetry`.
        Results without the key are untouched, so runs with telemetry
        off pay one dict lookup per cell here and nothing else.
        """
        self.telemetry_by_cell = {}
        for cell in cells:
            result = merged[cell.id]
            if isinstance(result, dict) and "__telemetry__" in result:
                self.telemetry_by_cell[cell.id] = result.pop("__telemetry__")
        if self.telemetry_by_cell:
            from ..obs.telemetry import merge_snapshots
            self.telemetry = merge_snapshots(
                [snapshot for _cell_id, snapshot
                 in sorted(self.telemetry_by_cell.items())])
        else:
            self.telemetry = None

    @staticmethod
    def _spec(cell: Cell) -> Tuple[str, str, str]:
        return (cell.id, cell.kind,
                json.dumps(cell.params, sort_keys=True))


# -- built-in cell kinds ------------------------------------------------------
# One function per experiment family.  All imports are lazy so the module
# stays importable from anywhere in the package (and cheap for workers),
# and every function returns plain JSON-able data.


def _testbed(kind: str, overrides: Optional[Dict[str, Dict[str, Any]]]):
    """The ``TestbedParams`` a cell's ``overrides`` describe (None if none).

    ``overrides`` maps a ``TestbedParams`` group ("nfs", "ext3", ...) to
    the fields to change.  An NFS kind starts from its version's
    ``NfsParams``: the stack keeps only the NFS fields that differ from
    ``NfsParams()``, so an override back to that default (v4 with
    ``access_check_per_component=False``) would otherwise be dropped.
    """
    if not overrides:
        return None
    from dataclasses import replace

    from .params import TestbedParams

    params = TestbedParams()
    version = {"nfsv2": 2, "nfsv3": 3, "nfsv4": 4}.get(kind)
    if version is not None:
        params = params.with_nfs_version(version)
    return replace(params, **{group: replace(getattr(params, group), **fields)
                              for group, fields in overrides.items()})


@cell_kind("quick")
def _cell_quick(kind: str, san: bool = False,
                telemetry: bool = False) -> Dict[str, Any]:
    """The ``repro quick`` smoke row for one stack kind.

    ``san=True`` runs the same workload under the runtime sanitizers
    (:mod:`repro.check.simsan`); the result is byte-identical unless a
    check fires, in which case the cell raises.  ``telemetry=True``
    attaches the streaming collector; its snapshot rides along under
    ``"__telemetry__"`` (stripped by the runner) and the measured fields
    stay byte-identical.
    """
    from .comparison import make_stack

    stack = make_stack(kind, san=san, telemetry=telemetry)
    client = stack.client

    def work():
        yield from client.mkdir("/d")
        fd = yield from client.creat("/d/f")
        yield from client.write(fd, 16_384)
        yield from client.close(fd)
        yield from client.stat("/d/f")

    snap = stack.snapshot()
    stack.run(work())
    stack.quiesce()
    stack.check()
    delta = stack.delta(snap)
    result: Dict[str, Any] = {
        "messages": delta.messages, "bytes": delta.total_bytes,
        "now_s": stack.now}
    if stack.telemetry is not None:
        result["__telemetry__"] = stack.telemetry.snapshot()
    return result


@cell_kind("syscall_table")
def _cell_syscall_table(kind: str, depth: int, warm: bool) -> Dict[str, int]:
    """One (stack, depth) column of Table 2 (cold) or Table 3 (warm)."""
    from ..workloads import run_syscall_table

    table = run_syscall_table(kinds=(kind,), depths=(depth,), warm=warm)
    return {op: row[kind] for op, row in table[depth].items()}


@cell_kind("seqrand")
def _cell_seqrand(kind: str, mode: str, mb: int,
                  rtt: Optional[float] = None, chunk: Optional[int] = None,
                  overrides: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
    """One streaming-I/O cell of Figure 6, the Section 6.1 what-if and
    the write-limit and rsize ablations (``chunk`` bytes per call)."""
    from ..workloads import SeqRandWorkload
    from ..workloads.seqrand import CHUNK

    workload = SeqRandWorkload(kind, file_mb=mb, chunk=chunk or CHUNK,
                               params=_testbed(kind, overrides), rtt=rtt)
    if mode == "seq-read":
        result = workload.run_read(True)
    elif mode == "rand-read":
        result = workload.run_read(False)
    elif mode == "seq-write":
        result = workload.run_write(True)
    elif mode == "rand-write":
        result = workload.run_write(False)
    else:
        raise ValueError("unknown mode %r" % (mode,))
    return {"completion_time": result.completion_time,
            "messages": result.messages, "bytes": result.bytes,
            "retransmissions": result.retransmissions}


@cell_kind("seqrand_table")
def _cell_seqrand_table(kind: str, mb: int) -> Dict[str, Any]:
    """All four Table 4 modes for one stack, on one shared workload.

    One cell, not four: the workload's shuffle RNG is shared across the
    modes (rand-write sees the state rand-read left behind), so splitting
    the modes into separate cells would change the random-write chunk
    order and drift the message counts.
    """
    from ..workloads import SeqRandWorkload

    workload = SeqRandWorkload(kind, file_mb=mb)
    results = {}
    for mode, result in (
        ("seq-read", workload.run_read(True)),
        ("rand-read", workload.run_read(False)),
        ("seq-write", workload.run_write(True)),
        ("rand-write", workload.run_write(False)),
    ):
        results[mode] = {"completion_time": result.completion_time,
                         "messages": result.messages, "bytes": result.bytes,
                         "retransmissions": result.retransmissions}
    return results


@cell_kind("farm_point")
def _cell_farm_point(protocol: str, nclients: int, nservers: int,
                     connections: int, sharing: float,
                     requests: int) -> Dict[str, Any]:
    """One farm-sweep point (:func:`repro.sim.farm.run_farm`)."""
    from ..sim.farm import run_farm

    return run_farm(protocol=protocol, nclients=nclients, nservers=nservers,
                    connections=connections, sharing=sharing,
                    requests=requests)


@cell_kind("postmark")
def _cell_postmark(kind: str, files: int, transactions: int,
                   overrides: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """One PostMark row (Tables 5 and 9/10 share this kind)."""
    from ..workloads import PostMark

    result = PostMark(kind, file_count=files, transactions=transactions,
                      params=_testbed(kind, overrides)).run()
    return {"completion_time": result.completion_time,
            "messages": result.messages,
            "server_cpu": result.server_cpu, "client_cpu": result.client_cpu}


@cell_kind("tpcc")
def _cell_tpcc(kind: str, transactions: int) -> Dict[str, Any]:
    """One TPC-C-like OLTP row (Tables 6 and 9/10)."""
    from ..workloads import TpccWorkload

    result = TpccWorkload(kind, transactions=transactions).run()
    return {"throughput": result.throughput, "messages": result.messages,
            "server_cpu": result.server_cpu, "client_cpu": result.client_cpu}


@cell_kind("tpch")
def _cell_tpch(kind: str, queries: int, mb: int) -> Dict[str, Any]:
    """One TPC-H-like DSS row (Tables 7 and 9/10)."""
    from ..workloads import TpchWorkload

    result = TpchWorkload(kind, queries=queries, database_mb=mb).run()
    return {"throughput": result.throughput, "messages": result.messages,
            "server_cpu": result.server_cpu, "client_cpu": result.client_cpu}


@cell_kind("kernel_tree")
def _cell_kernel_tree(kind: str, dirs: int) -> Dict[str, Any]:
    """One kernel-tree-operations row of Table 8."""
    from ..workloads import KernelTreeOps, TreeSpec

    spec = TreeSpec(top_dirs=dirs)
    result = KernelTreeOps(kind, spec).run_all()
    return {"tar_seconds": result.tar_seconds,
            "ls_seconds": result.ls_seconds,
            "make_seconds": result.make_seconds,
            "rm_seconds": result.rm_seconds,
            "total_files": spec.total_files}


@cell_kind("batching")
def _cell_batching(op: str, batch: int,
                   overrides: Optional[Dict[str, Any]] = None) -> float:
    """One batch-size point of Figure 3 (amortized messages/op)."""
    from ..workloads import run_batching_sweep

    return run_batching_sweep(op, batch_sizes=(batch,),
                              params=_testbed("iscsi", overrides))[batch]


@cell_kind("depth_point")
def _cell_depth_point(op: str, kind: str, depth: int, warm: bool,
                      overrides: Optional[Dict[str, Any]] = None) -> int:
    """One (stack, depth) point of Figure 4."""
    from ..workloads import run_depth_sweep

    return run_depth_sweep(op, kind, depths=(depth,), warm=warm,
                           params=_testbed(kind, overrides))[depth]


@cell_kind("attr_cache")
def _cell_attr_cache(validity: float) -> int:
    """The attribute-cache ablation: NFS v3 messages for 30 re-reads of
    one file at alternating 10 s / 1 s gaps, with attributes valid for
    ``validity`` seconds."""
    from .comparison import make_stack

    stack = make_stack("nfsv3", _testbed(
        "nfsv3", {"nfs": {"attr_cache_validity": validity}}))
    client = stack.client

    def work():
        fd = yield from client.creat("/f")
        yield from client.write(fd, 4096)
        yield from client.close(fd)
        fd = yield from client.open("/f")
        yield from client.read(fd, 4096)
        for i in range(30):
            # alternate short and long idle gaps
            yield stack.sim.timeout(1.0 if i % 2 else 10.0)
            yield from client.pread(fd, 4096, 0)

    snap = stack.snapshot()
    stack.run(work())
    stack.quiesce()
    return stack.delta(snap).messages


@cell_kind("io_size_point")
def _cell_io_size_point(kind: str, mode: str, size: int) -> int:
    """One (stack, mode, size) point of Figure 5."""
    from ..workloads import run_io_size_sweep

    return run_io_size_sweep(kind, mode, sizes=(size,))[size]


@cell_kind("sharing")
def _cell_sharing(profile: str, limit: int) -> List[Dict[str, float]]:
    """Figure 7 sharing analysis for one trace profile."""
    from ..traces import (CAMPUS_PROFILE, EECS_PROFILE, TraceGenerator,
                          analyze_sharing)

    profiles = {"eecs": EECS_PROFILE, "campus": CAMPUS_PROFILE}
    chosen = profiles[profile]
    events = list(TraceGenerator(chosen).events(limit=limit))
    return [
        {"interval": point.interval,
         "read_by_one": point.read_by_one,
         "read_by_multiple": point.read_by_multiple,
         "written_by_one": point.written_by_one,
         "written_by_multiple": point.written_by_multiple,
         "read_write_shared": point.read_write_shared}
        for point in analyze_sharing(events)
    ]


@cell_kind("metadata_cache")
def _cell_metadata_cache(limit: int,
                         profile: str = "eecs") -> Dict[str, Dict[str, Any]]:
    """The Section-7 consistent-meta-data-cache sweep over one trace."""
    from ..traces import (CAMPUS_PROFILE, EECS_PROFILE, TraceGenerator,
                          sweep_cache_sizes)

    chosen = {"eecs": EECS_PROFILE, "campus": CAMPUS_PROFILE}[profile]
    events = list(TraceGenerator(chosen).events(limit=limit))
    out = {}
    for size, result in sweep_cache_sizes(events).items():
        out[str(size)] = {
            "baseline_messages": result.baseline_messages,
            "consistent_messages": result.consistent_messages,
            "reduction": result.reduction,
            "callback_ratio": result.callback_ratio,
        }
    return out


@cell_kind("bench_case")
def _cell_bench_case(workload: str, stack: str, san: bool = False,
                     telemetry: bool = False) -> Dict[str, Any]:
    """One traced case of a ``repro bench`` suite."""
    from ..obs.bench import run_case

    return run_case(workload, stack, san=san, telemetry=telemetry)


@cell_kind("faults_scenario")
def _cell_faults_scenario(kind: str, workload: str, plan: Any,
                          seed: int = 0, san: bool = False,
                          telemetry: bool = False) -> Dict[str, Any]:
    """One (stack, workload, fault plan) degraded-mode scenario.

    ``plan`` is a preset name or an inline JSON spec (cells must be pure
    functions of JSON params, so file paths are resolved by the CLI
    before the cell is built).  The fault clock starts with the workload;
    the quiesce runs after, so recovery traffic is part of the counts.

    ``san=True`` attaches the runtime sanitizers in *report* mode: a
    faulted run legitimately abandons in-flight exchanges, so findings
    are returned under ``result["sanitizer"]`` instead of raising.
    """
    from ..faults import resolve_plan
    from ..obs.bench import WORKLOADS
    from .comparison import make_stack

    fault_plan = resolve_plan(plan, seed=seed)
    stack = make_stack(kind, fault_plan=fault_plan, san=san,
                       telemetry=telemetry)
    snap = stack.snapshot()
    start = stack.now
    stack.run(WORKLOADS[workload](stack.client), name=workload)
    elapsed = stack.now - start
    stack.quiesce()
    delta = stack.delta(snap)

    result: Dict[str, Any] = {
        "stack": kind,
        "workload": workload,
        "completion_time_s": round(elapsed, 9),
        "total_time_s": round(stack.now, 9),
        "messages": delta.messages,
        "bytes": delta.total_bytes,
        "retransmissions": delta.retransmissions,
        "faults": (stack.fault_injector.summary()
                   if stack.fault_injector is not None else None),
    }
    recovery: Dict[str, Any] = {}
    if stack.server is not None:
        recovery["server_restarts"] = stack.server.restarts
    if stack.initiator is not None:
        recovery["session_drops"] = stack.initiator.session_drops
        recovery["relogins"] = stack.initiator.logins
        recovery["requeued_commands"] = stack.initiator.requeued_commands
    recovery["degraded_reads"] = stack.raid.degraded_reads
    recovery["degraded_writes"] = stack.raid.degraded_writes
    recovery["rebuild_writes"] = stack.raid.rebuild_writes
    result["recovery"] = recovery
    if san:
        result["sanitizer"] = [
            {"code": finding.code, "message": finding.message}
            for finding in stack.check(strict=False)
        ]
    if stack.telemetry is not None:
        result["__telemetry__"] = stack.telemetry.snapshot()
    return result


@cell_kind("telemetry_run")
def _cell_telemetry_run(kind: str, workload: str) -> Dict[str, Any]:
    """One telemetry-first run for ``repro dash``: workload + snapshot.

    The snapshot rides under ``"__telemetry__"`` like everywhere else,
    so the runner's aggregation and the per-cell dashboards both work.
    """
    from ..obs.bench import WORKLOADS
    from .comparison import make_stack

    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r; one of %s"
                         % (workload, sorted(WORKLOADS)))
    stack = make_stack(kind, telemetry=True)
    start = stack.now
    stack.run(WORKLOADS[workload](stack.client), name=workload)
    elapsed = stack.now - start
    stack.quiesce()
    return {
        "stack": kind,
        "workload": workload,
        "completion_time_s": round(elapsed, 9),
        "total_time_s": round(stack.now, 9),
        "__telemetry__": stack.telemetry.snapshot(),
    }


@cell_kind("explain_pair")
def _cell_explain_pair(workload: str, stack_a: str, stack_b: str,
                       telemetry: bool = False,
                       top: int = 8) -> Dict[str, Any]:
    """One differential-diagnosis report for a workload on two stacks.

    Runs the workload traced on ``stack_a`` and ``stack_b`` and returns
    :func:`repro.obs.explain.explain_runs`'s report — deterministic and
    JSON-round-trippable, so the result is cacheable and byte-identical
    across ``--jobs``.  ``telemetry=True`` carries the streaming
    collector on both sides and adds the series-delta section.
    """
    from ..obs.explain import explain_runs, run_side

    side_a = run_side(workload, stack_a, telemetry=telemetry)
    side_b = run_side(workload, stack_b, telemetry=telemetry)
    return explain_runs(side_a, side_b, top=top)
