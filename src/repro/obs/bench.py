"""The benchmark-regression harness behind ``repro bench``.

Runs a named *suite* of workloads on both storage stacks with tracing
enabled and emits one schema-versioned JSON document per suite
(``BENCH_<suite>.json``): completion times, exact message/byte counts,
per-syscall latency percentiles, the profiler's per-layer attribution and
top critical-path segments, and per-resource queueing stats.  Everything
is *simulated* time, so the output is deterministic — two runs of the
same code produce byte-identical JSON, which makes the committed baseline
a precise regression gate:

* ``repro bench --suite quick`` regenerates the document;
* ``repro bench --compare old.json new.json`` flags completion-time
  regressions beyond a tolerance (default 15%) and *any* change in
  message counts (counts are deterministic, so a drifted count means the
  protocol behavior changed — exactness is the point).

CI runs the quick suite on every push and compares against the committed
``BENCH_quick.json``; a legitimate performance change ships with a
regenerated baseline in the same commit, so the file doubles as the
repository's performance trajectory.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from ..core.comparison import make_stack
from .profile import Profile

__all__ = [
    "SCHEMA_VERSION",
    "SCALE_SCHEMA_VERSION",
    "compare_scale_documents",
    "WORKLOADS",
    "SUITES",
    "run_case",
    "run_case_stack",
    "run_suite",
    "suite_cells",
    "write_bench",
    "load_bench",
    "relative_change",
    "compare",
    "format_compare",
    "format_compare_json",
]

SCHEMA_VERSION = 1

# The ``repro scale --farm`` document (``BENCH_scale.json``).  Schema 1
# recorded wall-clock storm timings (machine-dependent); schema 2 is the
# farm sweep, whose every field is simulated outcome and therefore
# byte-comparable across hosts.
SCALE_SCHEMA_VERSION = 2

# How many ranked critical-path segments each case records.
_PATH_LIMIT = 8


# -- workloads ----------------------------------------------------------------
# Shared by `repro trace` and `repro bench`: small, deterministic drivers
# that touch every layer of a stack.  All take the stack's client (the
# uniform syscall surface) and run as one simulator process.


def _workload_smoke(client):
    """A handful of syscalls touching every layer once."""
    yield from client.mkdir("/d")
    fd = yield from client.creat("/d/f")
    yield from client.write(fd, 16_384)
    yield from client.fsync(fd)
    yield from client.pread(fd, 4096, 0)
    yield from client.close(fd)
    yield from client.stat("/d/f")


def _workload_postmark(client, files=20, transactions=60, seed=42):
    """A small PostMark-like mix: create pool, transact, delete pool."""
    import random

    from ..fs.vfs import O_RDWR

    rng = random.Random(seed)
    yield from client.mkdir("/pm")
    names = []
    for index in range(files):
        name = "/pm/f%03d" % index
        fd = yield from client.creat(name)
        yield from client.pwrite(fd, rng.randrange(512, 16_384), 0)
        yield from client.close(fd)
        names.append(name)
    serial = files
    for _ in range(transactions):
        choice = rng.randrange(4)
        if choice == 0 and names:  # read a whole file
            fd = yield from client.open(rng.choice(names))
            attrs = yield from client.fstat(fd)
            yield from client.pread(fd, attrs.size, 0)
            yield from client.close(fd)
        elif choice == 1 and names:  # append
            fd = yield from client.open(rng.choice(names), O_RDWR)
            attrs = yield from client.fstat(fd)
            yield from client.pwrite(fd, rng.randrange(512, 8192), attrs.size)
            yield from client.close(fd)
        elif choice == 2:  # create
            name = "/pm/f%03d" % serial
            serial += 1
            fd = yield from client.creat(name)
            yield from client.pwrite(fd, rng.randrange(512, 16_384), 0)
            yield from client.close(fd)
            names.append(name)
        elif names:  # delete
            victim = names.pop(rng.randrange(len(names)))
            yield from client.unlink(victim)
    for name in names:
        yield from client.unlink(name)
    yield from client.rmdir("/pm")


def _make_io_workload(sequential: bool, write: bool, file_mb: int = 2,
                      seed: int = 7):
    """Sequential/random whole-file reader or writer over 64 KB requests.

    ``seed`` fixes the random permutation's RNG: the offset order (and
    so every message count downstream) is a pure function of the
    arguments, per the repo's determinism contract.
    """

    def workload(client):
        import random

        request = 64 * 1024
        size = file_mb * 1024 * 1024
        offsets = list(range(0, size, request))
        fd = yield from client.creat("/io")
        yield from client.pwrite(fd, size, 0)
        yield from client.fsync(fd)
        if not sequential:
            random.Random(seed).shuffle(offsets)
        for offset in offsets:
            if write:
                yield from client.pwrite(fd, request, offset)
            else:
                yield from client.pread(fd, request, offset)
        yield from client.close(fd)

    return workload


WORKLOADS = {
    "smoke": _workload_smoke,
    "postmark": _workload_postmark,
    "seqread": _make_io_workload(sequential=True, write=False),
    "randread": _make_io_workload(sequential=False, write=False),
    "seqwrite": _make_io_workload(sequential=True, write=True),
    "randwrite": _make_io_workload(sequential=False, write=True),
}

# Suite -> ((workload, stack kinds), ...).  "quick" is the CI gate:
# small enough for every push, broad enough to cover metadata (smoke),
# mixed small-file traffic (postmark), and cached overwrites (randwrite).
# The rand*/seq* workloads write and fsync their 2 MB file first, and it
# stays cached, so offset order never reaches the wire or the disks:
# each rand* record equals its seq* twin apart from the workload name,
# and randwrite does not show the paper's random-write asymmetry.
SUITES: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "quick": (
        ("smoke", ("nfsv3", "iscsi")),
        ("postmark", ("nfsv3", "iscsi")),
        ("randwrite", ("nfsv3", "iscsi")),
    ),
    "streaming": (
        ("seqread", ("nfsv3", "iscsi")),
        ("randread", ("nfsv3", "iscsi")),
        ("seqwrite", ("nfsv3", "iscsi")),
        ("randwrite", ("nfsv3", "iscsi")),
    ),
}


# -- running ------------------------------------------------------------------


def run_case(workload: str, kind: str, san: bool = False,
             telemetry: bool = False) -> Dict[str, Any]:
    """Run one traced workload on one stack; return its JSON-ready record.

    ``completion_time_s`` is the application's elapsed time;
    ``total_time_s`` additionally covers the quiesce (asynchronous
    write-back and journal settling), matching the paper's packet-capture
    window.  Message and byte counts include the quiesce traffic.

    With ``san=True`` the run carries the runtime sanitizers
    (:mod:`repro.check.simsan`) and fails loudly on any finding; the
    record itself is byte-identical to an unsanitized run.

    With ``telemetry=True`` the streaming collector rides along and its
    snapshot is attached under ``"__telemetry__"`` — the runner strips
    that key before results reach a suite document, and every other
    field stays byte-identical (telemetry probes are pure reads).
    """
    record, _stack = run_case_stack(workload, kind, san=san,
                                    telemetry=telemetry)
    return record


def run_case_stack(workload: str, kind: str, san: bool = False,
                   telemetry: bool = False) -> Tuple[Dict[str, Any], Any]:
    """:func:`run_case`, also returning the finished (traced) stack.

    The diff engine (:mod:`repro.obs.explain`) needs both: the JSON
    record for the headline figures and the live tracer for per-op
    message drift.  The record is the one :func:`run_case` would return.
    """
    stack = make_stack(kind, trace=True, san=san, telemetry=telemetry)
    snap = stack.snapshot()
    start = stack.now
    stack.run(WORKLOADS[workload](stack.client), name=workload)
    elapsed = stack.now - start
    stack.quiesce()
    stack.check()
    delta = stack.delta(snap)
    profile = Profile(stack.tracer)

    attribution = {}
    for layer, stat in profile.attribution().items():
        attribution[layer] = {
            "spans": stat.spans,
            "inclusive_s": round(stat.inclusive, 9),
            "exclusive_s": round(stat.exclusive, 9),
        }
    syscalls = {}
    for name in sorted(stack.tracer.histograms):
        if not name.startswith("syscall:"):
            continue
        hist = stack.tracer.histograms[name]
        syscalls[name[len("syscall:"):]] = {
            "count": hist.count,
            "mean_ms": round(hist.mean * 1e3, 9),
            "p50_ms": round(hist.percentile(0.50) * 1e3, 9),
            "p95_ms": round(hist.percentile(0.95) * 1e3, 9),
            "p99_ms": round(hist.percentile(0.99) * 1e3, 9),
        }
    critical_path = [
        [segment_name, round(seconds, 9)]
        for segment_name, seconds, _hops
        in profile.critical_path_summary()[:_PATH_LIMIT]
    ]
    resources = {
        resource.name: resource.stats.as_dict()
        for resource in stack.resources()
    }
    record = {
        "workload": workload,
        "stack": kind,
        "completion_time_s": round(elapsed, 9),
        "total_time_s": round(stack.now, 9),
        "messages": delta.messages,
        "bytes": delta.total_bytes,
        "retransmissions": delta.retransmissions,
        "syscalls": syscalls,
        "attribution": attribution,
        "critical_path": critical_path,
        "resources": resources,
    }
    if stack.telemetry is not None:
        record["__telemetry__"] = stack.telemetry.snapshot()
    return record, stack


def suite_cells(suite: str, san: bool = False, telemetry: bool = False):
    """The suite as a list of runner cells (one per workload x stack).

    Cell ids stay ``workload/kind`` either way, so a sanitized (or
    telemetry-carrying) suite document is keyed identically to a plain
    one; ``san``/``telemetry`` only enter the cell params (and thus the
    cache key).
    """
    from ..core.runner import Cell

    if suite not in SUITES:
        raise ValueError("unknown suite %r; one of %s"
                         % (suite, sorted(SUITES)))
    cells = []
    for workload, kinds in SUITES[suite]:
        for kind in kinds:
            params = {"workload": workload, "stack": kind}
            if san:
                params["san"] = True
            if telemetry:
                params["telemetry"] = True
            cells.append(Cell("%s/%s" % (workload, kind), "bench_case",
                              params))
    return cells


def run_suite(suite: str, runner: Optional[Any] = None,
              san: bool = False, telemetry: bool = False) -> Dict[str, Any]:
    """Run every case of the named suite; return the versioned document.

    ``runner`` is an optional
    :class:`~repro.core.runner.ExperimentRunner` providing parallel
    fan-out and result caching; by default the cases run serially
    in-process with no cache.  Either way the case records are keyed and
    ordered by cell id, so the emitted document is byte-identical across
    ``--jobs`` settings — and, because sanitizers observe without
    perturbing, across ``san`` settings too.
    """
    from ..core.runner import ExperimentRunner

    if runner is None:
        runner = ExperimentRunner(jobs=None, use_cache=False)
    cases = runner.run(suite_cells(suite, san=san, telemetry=telemetry))
    return {"schema": SCHEMA_VERSION, "suite": suite, "cases": cases}


def write_bench(result: Dict[str, Any], path: str) -> None:
    """Write a suite result as stable, diffable JSON (sorted keys)."""
    with open(path, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench(path: str) -> Dict[str, Any]:
    """Load a ``BENCH_*.json`` document."""
    with open(path) as handle:
        return json.load(handle)


# -- comparison ---------------------------------------------------------------


def relative_change(old: Any, new: Any) -> Any:
    """``(new - old) / old`` with defined values on a zero baseline.

    Returns 0.0 when both values are zero and the string ``"new"`` when
    the baseline is zero but the current value is not — the comparison
    and diff engines must never divide by zero.  (A vanished quantity,
    ``old > 0, new == 0``, is plain ``-1.0``.)
    """
    if old == 0:
        return 0.0 if new == 0 else "new"
    return (new - old) / old


def compare(baseline: Dict[str, Any], current: Dict[str, Any],
            tolerance: float = 0.15,
            ) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Diff two suite results: ``(regressions, notes)``.

    A regression is: a schema mismatch, a case present in the baseline
    but missing now, any change in the exact message count, or a
    completion time more than ``tolerance`` above the baseline.
    ``notes`` carries non-fatal observations (improvements, new cases).
    """
    regressions: List[Dict[str, Any]] = []
    notes: List[str] = []
    if baseline.get("schema") != current.get("schema"):
        regressions.append({
            "case": "(document)", "metric": "schema",
            "baseline": baseline.get("schema"),
            "current": current.get("schema"),
        })
        return regressions, notes
    old_cases = baseline.get("cases", {})
    new_cases = current.get("cases", {})
    for case in sorted(old_cases):
        old = old_cases[case]
        new = new_cases.get(case)
        if new is None:
            regressions.append({"case": case, "metric": "presence",
                                "baseline": "present", "current": "missing"})
            continue
        if new["messages"] != old["messages"]:
            regressions.append({"case": case, "metric": "messages",
                                "baseline": old["messages"],
                                "current": new["messages"],
                                "relative": relative_change(
                                    old["messages"], new["messages"])})
        t_old = old["completion_time_s"]
        t_new = new["completion_time_s"]
        if t_new > t_old * (1.0 + tolerance) + 1e-12:
            regressions.append({"case": case, "metric": "completion_time_s",
                                "baseline": t_old, "current": t_new,
                                "relative": relative_change(t_old, t_new)})
        elif t_old > 0 and t_new < t_old * (1.0 - tolerance):
            notes.append("%s: completion time improved %.3fs -> %.3fs"
                         % (case, t_old, t_new))
    for case in sorted(set(new_cases) - set(old_cases)):
        notes.append("%s: new case (no baseline)" % case)
    return regressions, notes


def compare_scale_documents(baseline: Dict[str, Any],
                            current: Dict[str, Any]) -> List[str]:
    """Diff two farm-scale documents; return the list of problems.

    Every field of a farm point is deterministic simulated outcome, so
    the comparison is *exact*: a schema change, a missing/new point, or
    any drifted value is a problem.  An empty list means the documents
    agree (derived ``series`` figures included, since they are pure
    functions of the points).
    """
    problems: List[str] = []
    if baseline.get("schema") != current.get("schema"):
        return ["schema: %r -> %r"
                % (baseline.get("schema"), current.get("schema"))]
    old_points = {point["id"]: point for point in baseline.get("points", ())}
    new_points = {point["id"]: point for point in current.get("points", ())}
    for point_id in sorted(old_points):
        if point_id not in new_points:
            problems.append("%s: missing from current" % point_id)
            continue
        old, new = old_points[point_id], new_points[point_id]
        for key in sorted(set(old) | set(new)):
            if old.get(key) != new.get(key):
                problems.append("%s: %s %r -> %r"
                                % (point_id, key, old.get(key),
                                   new.get(key)))
    for point_id in sorted(set(new_points) - set(old_points)):
        problems.append("%s: not in baseline" % point_id)
    if baseline.get("series") != current.get("series"):
        problems.append("series: derived figures drifted")
    return problems


def format_compare(regressions: List[Dict[str, Any]],
                   notes: List[str]) -> str:
    """Human-readable comparison verdict (one line per finding)."""
    lines = []
    for entry in regressions:
        lines.append("REGRESSION %s: %s %r -> %r" % (
            entry["case"], entry["metric"],
            entry["baseline"], entry["current"]))
    for note in notes:
        lines.append("note: %s" % note)
    if not regressions:
        lines.append("ok: no regressions beyond tolerance")
    return "\n".join(lines)


def format_compare_json(regressions: List[Dict[str, Any]],
                        notes: List[str]) -> str:
    """Machine-readable comparison verdict (one stable JSON document).

    The structure CI annotations consume: the same regression entries
    :func:`compare` produced, the notes verbatim, and an ``ok`` flag
    mirroring the exit code (``not regressions``).  Keys are sorted and
    the output ends in a newline, so equal inputs give equal bytes.
    """
    return json.dumps(
        {"ok": not regressions, "regressions": regressions, "notes": notes},
        indent=2, sort_keys=True,
    ) + "\n"
