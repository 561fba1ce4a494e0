"""The paper's artifacts, each described once.

:data:`ARTIFACTS` lists every table, figure and Section-6/7 result of
the paper in ``repro all``'s section order.  An :class:`Artifact` holds

* its *cells* — pure runner computations, one stack x workload x
  parameter point — and the *renderer* that prints them, at the
  ``options`` its subcommands expose as flags (``repro all`` renders at
  their defaults);
* the paper's reference numbers;
* its *claims*: one sentence of the paper's finding each, the cells it
  reads, and a check returning the measured values and whether the
  finding holds.  A claim reads the rendered cells wherever they sit at
  the point the finding was measured at; otherwise it lists cells of
  its own, which only ``repro verify`` runs.

``repro verify`` runs every artifact's cells plus every claim's cells
through the cached runner and prints the scoreboard
(:func:`print_scoreboard`).  A *deviation* claim states why the
simulator is expected to miss the paper; it is reported and never fails
the gate.

Only :mod:`repro.cli` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .core.comparison import STACK_KINDS
from .core.runner import Cell, make_cell
from .workloads import SYSCALL_OPS

__all__ = ["ARTIFACTS", "Artifact", "Claim", "print_scoreboard",
           "print_table", "unique_cells", "verify_cells"]


@dataclass(frozen=True)
class Claim:
    """One sentence of the paper's finding, checked against cells.

    ``cells`` maps a key of the check's choosing to a cell;
    ``check(results)`` gets the same keys mapped to the cells' results
    and returns ``(measured, holds)``, ``measured`` a dict of the values
    the finding turns on.  ``deviation`` says why the simulator is
    expected to miss the finding; such a claim is reported but never
    fails ``repro verify``.
    """

    id: str
    finding: str
    cells: Mapping[Any, Cell]
    check: Callable[[Mapping[Any, Any]], Tuple[Dict[str, Any], bool]]
    deviation: Optional[str] = None


@dataclass(frozen=True)
class Artifact:
    """One section of the paper: rendered cells, reference, claims.

    ``section`` heads the artifact in ``repro all``; each of its
    ``/``-separated parts is a subcommand rendering it.  ``options``
    maps every flag of those subcommands to its default, and
    ``cells(**options)`` / ``render(results, **options)`` produce the
    printed table.  An artifact without a renderer carries claims only
    (the what-ifs and ablations) and has no subcommand.
    """

    section: str
    title: str
    options: Mapping[str, Any] = field(default_factory=dict)
    cells: Optional[Callable[..., List[Cell]]] = None
    render: Optional[Callable[..., None]] = None
    paper: Any = None
    claims: Tuple[Claim, ...] = ()

    @property
    def commands(self) -> Tuple[str, ...]:
        return tuple(self.section.split("/")) if self.render else ()

    def default_cells(self) -> List[Cell]:
        return self.cells(**self.options) if self.cells else []


def print_table(headers, rows):
    widths = [max(len(str(headers[i])),
                  max((len(str(r[i])) for r in rows), default=0))
              for i in range(len(headers))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def unique_cells(cells: Iterable[Cell]) -> List[Cell]:
    """``cells`` without repeated ids, first occurrence first."""
    seen: Dict[str, Cell] = {}
    for cell in cells:
        seen.setdefault(cell.id, cell)
    return list(seen.values())


def verify_cells() -> List[Cell]:
    """Every artifact's rendered cells, then every claim's own cells."""
    return unique_cells(
        [cell for entry in ARTIFACTS for cell in entry.default_cells()]
        + [cell for entry in ARTIFACTS for claim in entry.claims
           for cell in claim.cells.values()])


def _show(value: Any) -> str:
    if isinstance(value, float):
        return "%.3g" % value
    if isinstance(value, (list, tuple)):
        return "/".join(_show(item) for item in value)
    return str(value)


def print_scoreboard(results: Mapping[str, Any]) -> List[str]:
    """Check every claim against ``results`` and print the scoreboard as
    a Markdown table; return the ids of the failed non-deviation claims."""
    print("| artifact | claim | finding | measured | status |")
    print("|---|---|---|---|---|")
    failed, deviations, held = [], [], 0
    for entry in ARTIFACTS:
        for claim in entry.claims:
            measured, holds = claim.check(
                {key: results[cell.id] for key, cell in claim.cells.items()})
            if claim.deviation:
                deviations.append(claim)
                status = "holds (listed deviation)" if holds else "deviation"
            elif holds:
                held += 1
                status = "holds"
            else:
                failed.append(claim.id)
                status = "FAILS"
            print("| %s | `%s` | %s | %s | %s |" % (
                entry.title, claim.id, claim.finding,
                ", ".join("%s %s" % (name, _show(value))
                          for name, value in measured.items()), status))
    print("\n%d claims: %d hold, %d fail, %d listed deviations"
          % (held + len(failed) + len(deviations), held, len(failed),
             len(deviations)))
    for claim in deviations:
        print("deviation %s: %s" % (claim.id, claim.deviation))
    for claim_id in failed:
        print("FAILED %s" % claim_id)
    return failed


def _pair(cells: List[Cell]) -> Dict[str, Cell]:
    """An (NFS v3, iSCSI) pair of cells, keyed by stack."""
    return dict(zip(("nfsv3", "iscsi"), cells))


# -- quick: the five-stack smoke row --------------------------------------------


def _cells_quick(san: bool, telemetry: bool, shards: int) -> List[Cell]:
    cells = []
    for kind in STACK_KINDS:
        params: Dict[str, Any] = {"kind": kind}
        if san:
            params["san"] = True
        if telemetry:
            params["telemetry"] = True
        if shards:
            # Conditional, like san/telemetry: the default cell ids (and
            # the cache keys behind BENCH_quick.json) stay unchanged.
            params["shards"] = shards
        cells.append(make_cell("quick", **params))
    return cells


def _render_quick(results, san: bool, telemetry: bool, shards: int) -> None:
    for cell in _cells_quick(san, telemetry, shards):
        record = results[cell.id]
        print("%-14s msgs=%-5d bytes=%-8d t=%.2fms" % (
            cell.params["kind"], record["messages"], record["bytes"],
            record["now_s"] * 1000))


QUICK = Artifact(
    "quick", "quick (five-stack smoke)",
    options={"san": False, "telemetry": False, "shards": 0},
    cells=_cells_quick, render=_render_quick)


# -- Tables 2 and 3: per-syscall message counts ------------------------------------

SYSCALL_KINDS = ("nfsv2", "nfsv3", "nfsv4", "iscsi")

# Paper's Table 2 — (v2, v3, v4, iSCSI) at depths 0 and 3.
TABLE2_PAPER = {
    0: {"mkdir": (2, 2, 4, 7), "chdir": (1, 1, 3, 2), "readdir": (2, 2, 4, 6),
        "symlink": (3, 2, 4, 6), "readlink": (2, 2, 3, 5), "unlink": (2, 2, 4, 6),
        "rmdir": (2, 2, 4, 8), "creat": (3, 3, 10, 7), "open": (2, 2, 7, 3),
        "link": (4, 4, 7, 6), "rename": (4, 3, 7, 6), "trunc": (3, 3, 8, 6),
        "chmod": (3, 3, 5, 6), "chown": (3, 3, 5, 6), "access": (2, 2, 5, 3),
        "stat": (3, 3, 5, 3), "utime": (2, 2, 4, 6)},
    3: {"mkdir": (5, 5, 10, 13), "chdir": (4, 4, 9, 8), "readdir": (5, 5, 10, 12),
        "symlink": (6, 5, 10, 12), "readlink": (5, 5, 9, 10), "unlink": (5, 5, 10, 11),
        "rmdir": (5, 5, 10, 14), "creat": (6, 6, 16, 13), "open": (5, 5, 13, 9),
        "link": (10, 9, 16, 12), "rename": (10, 10, 16, 12), "trunc": (6, 6, 14, 12),
        "chmod": (6, 6, 11, 12), "chown": (6, 6, 11, 11), "access": (5, 5, 11, 9),
        "stat": (6, 6, 11, 9), "utime": (5, 5, 10, 12)},
}

# Paper's Table 3 at depth 0 (v2, v3, v4, iSCSI).  The source scan of the
# warm table garbles rows 8-10 (creat/open/link ordering), so those rows
# are reported but only shape-checked.
TABLE3_PAPER = {
    "mkdir": (2, 2, 2, 2), "chdir": (1, 1, 0, 0), "readdir": (1, 1, 0, 2),
    "symlink": (3, 2, 2, 2), "readlink": (1, 2, 0, 2), "unlink": (2, 2, 2, 2),
    "rmdir": (2, 2, 2, 2), "creat": (3, 2, 6, 2), "open": (4, 3, 2, 2),
    "link": (1, 1, 4, 0), "rename": (4, 3, 2, 2), "trunc": (2, 2, 4, 2),
    "chmod": (2, 2, 2, 2), "chown": (2, 2, 2, 2), "access": (1, 1, 1, 2),
    "stat": (2, 2, 2, 0), "utime": (1, 1, 1, 2),
}


def _syscall_cell(kind: str, depth: int, warm: bool, shards: int = 0) -> Cell:
    params: Dict[str, Any] = {"kind": kind, "depth": depth, "warm": warm}
    if shards:
        params["shards"] = shards
    return make_cell("syscall_table", **params)


def _cells_syscalls(depth: Tuple[int, ...], warm: bool,
                    shards: int) -> List[Cell]:
    return [_syscall_cell(kind, d, warm, shards)
            for d in depth for kind in SYSCALL_KINDS]


def _render_syscalls(results, depth: Tuple[int, ...], warm: bool,
                     shards: int) -> None:
    for d in depth:
        print("\n%s cache, depth %d" % ("warm" if warm else "cold", d))
        rows = []
        for op in SYSCALL_OPS:
            row = [op]
            for kind in SYSCALL_KINDS:
                row.append(results[_syscall_cell(kind, d, warm, shards).id][op])
            rows.append(row)
        print_table(["syscall", "v2", "v3", "v4", "iscsi"], rows)


COLD = {(kind, d): _syscall_cell(kind, d, False)
        for d in (0, 3) for kind in SYSCALL_KINDS}


def _paper_misses(r, kinds: Tuple[str, ...]) -> Dict[Tuple[str, int, str], int]:
    """Cold count minus the paper's, per (kind, depth, op) of ``kinds``."""
    return {(kind, d, op): r[kind, d][op]
            - TABLE2_PAPER[d][op][SYSCALL_KINDS.index(kind)]
            for d in (0, 3) for op in SYSCALL_OPS for kind in kinds}


def _check_table2(r):
    updates = [(r["iscsi", d][op], r["nfsv3", d][op]) for d in (0, 3)
               for op in ("mkdir", "rmdir", "readdir", "unlink")]
    v4_v3 = [(r["nfsv4", d][op], r["nfsv3", d][op])
             for d in (0, 3) for op in SYSCALL_OPS]
    # NFS v2/v3 are cell-exact, except link/rename at depth 3 (+-1): the
    # paper's own v2-vs-v3 deltas there are mutually inconsistent with its
    # post-op-attribute explanation.
    loose = {(3, "link"), (3, "rename")}
    off = [key for key, delta in _paper_misses(r, ("nfsv2", "nfsv3")).items()
           if abs(delta) > (1 if key[1:] in loose else 0)]
    return ({"min iSCSI-v3": min(i - n for i, n in updates),
             "min v4-v3": min(v4 - v3 for v4, v3 in v4_v3),
             "v2/v3 cells off": len(off)},
            all(i > n for i, n in updates)
            and all(v4 >= v3 for v4, v3 in v4_v3) and not off)


def _check_v4_exact(r):
    deltas = list(_paper_misses(r, ("nfsv4",)).values())
    return ({"cells off": sum(map(bool, deltas)),
             "max abs delta": max(map(abs, deltas))}, not any(deltas))


TABLE2 = Artifact(
    "table2", "Table 2 (cold syscalls)",
    options={"depth": (0, 3), "shards": 0},
    cells=lambda depth, shards: _cells_syscalls(depth, False, shards),
    render=lambda results, depth, shards: _render_syscalls(
        results, depth, False, shards),
    paper=TABLE2_PAPER,
    claims=(
        Claim("table2.cold-messages",
              "cold, iSCSI sends more than NFS v3 for mkdir/rmdir/readdir/"
              "unlink, v4 at least v3 everywhere; NFS v2/v3 equal the paper "
              "(+-1 for link/rename at depth 3)", COLD, _check_table2),
        Claim("table2.v4-exact", "cold NFS v4 counts equal the paper's",
              COLD, _check_v4_exact,
              deviation="the UMich v4 client's exact RPC chatter cannot be "
                        "recovered from the paper; its structural behaviours "
                        "are modelled and cells land within +-1-2"),
    ))


def _check_table3(r):
    iscsi, v3 = r["iscsi"], r["nfsv3"]
    updates = [iscsi[op] for op in ("mkdir", "rmdir", "unlink", "creat",
                                    "chmod", "chown", "utime")]
    reads = [iscsi[op] for op in ("chdir", "stat", "access", "open")]
    checks = [v3[op] for op in ("chdir", "stat", "access", "readdir")]
    off = [op for op in ("mkdir", "chdir", "readdir", "symlink", "unlink",
                         "rmdir", "rename", "trunc", "chmod", "chown",
                         "access", "stat", "utime")
           if (r["nfsv2"][op], v3[op]) != TABLE3_PAPER[op][:2]]
    return ({"iSCSI updates": updates, "iSCSI reads": reads,
             "v3 checks": checks, "v2/v3 rows off": len(off)},
            all(count <= 3 for count in updates[:4])
            and all(count == 2 for count in updates)
            and all(count == 0 for count in reads)
            and all(count >= 1 for count in checks) and not off)


TABLE3 = Artifact(
    "table3", "Table 3 (warm syscalls)",
    options={"depth": (0,), "shards": 0},
    cells=lambda depth, shards: _cells_syscalls(depth, True, shards),
    render=lambda results, depth, shards: _render_syscalls(
        results, depth, True, shards),
    paper=TABLE3_PAPER,
    claims=(
        Claim("table3.warm-messages",
              "warm iSCSI updates cost exactly the 2-message journal commit "
              "and meta-data reads nothing; NFS v3 still checks consistency; "
              "v2/v3 equal the paper on its 13 legible rows",
              {kind: _syscall_cell(kind, 0, True) for kind in SYSCALL_KINDS},
              _check_table3),
    ))


# -- Table 4: 128 MB streaming I/O (run at 16 MB) ----------------------------------

TABLE4_MODES = ("seq-read", "rand-read", "seq-write", "rand-write")

# (completion s, messages, MB) from the paper at 128 MB
TABLE4_PAPER = {
    ("nfsv3", "seq-read"): (35, 33_362, 153), ("iscsi", "seq-read"): (35, 32_790, 148),
    ("nfsv3", "rand-read"): (64, 32_860, 153), ("iscsi", "rand-read"): (55, 32_827, 148),
    ("nfsv3", "seq-write"): (17, 32_990, 151), ("iscsi", "seq-write"): (2, 1_135, 143),
    ("nfsv3", "rand-write"): (21, 33_015, 151), ("iscsi", "rand-write"): (5, 1_150, 143),
}


def _cells_table4(mb: int, shards: int) -> List[Cell]:
    # One cell per stack covering all four modes: the workload's shuffle
    # RNG is shared across the modes, so they must run in one process.
    cells = []
    for kind in ("nfsv3", "iscsi"):
        params: Dict[str, Any] = {"kind": kind, "mb": mb}
        if shards:
            params["shards"] = shards
        cells.append(make_cell("seqrand_table", **params))
    return cells


def _render_table4(results, mb: int, shards: int) -> None:
    rows = []
    for cell in _cells_table4(mb, shards):
        by_mode = results[cell.id]
        for mode in TABLE4_MODES:
            record = by_mode[mode]
            rows.append([cell.params["kind"], mode,
                         "%.2fs" % record["completion_time"],
                         record["messages"],
                         "%.1fMB" % (record["bytes"] / 1e6)])
    print("%d MB streaming I/O" % mb)
    print_table(["stack", "mode", "time", "messages", "bytes"], rows)


def _check_table4(r):
    n, i = r["nfsv3"], r["iscsi"]
    read = n["seq-read"]["completion_time"] / i["seq-read"]["completion_time"]
    nw, iw = n["seq-write"], i["seq-write"]
    return ({"NFS/iSCSI seq-read time": read,
             "seq-write time": nw["completion_time"] / iw["completion_time"],
             "seq-write msgs": (nw["messages"], iw["messages"])},
            0.5 < read < 2.0
            and abs(n["seq-read"]["messages"] - i["seq-read"]["messages"])
            < 0.05 * n["seq-read"]["messages"]
            and n["rand-read"]["completion_time"]
            >= i["rand-read"]["completion_time"]
            and iw["completion_time"] < nw["completion_time"] / 4
            and iw["messages"] < nw["messages"] / 10
            and 0.7 < nw["bytes"] / iw["bytes"] < 1.5)


def _check_rand_write(r):
    rand, seq = (r["iscsi"][mode]["completion_time"]
                 for mode in ("rand-write", "seq-write"))
    return {"iSCSI rand/seq-write time": (rand, seq)}, rand > 2 * seq


# The rendered point, 16 MB: the paper's 128 MB scaled by 1/8.
TABLE4 = Artifact(
    "table4", "Table 4 (128 MB I/O)",
    options={"mb": 16, "shards": 0},
    cells=_cells_table4, render=_render_table4, paper=TABLE4_PAPER,
    claims=(
        Claim("table4.streaming",
              "reads are comparable (time 0.5-2x, messages within 5%, NFS "
              "random reads no faster); iSCSI writes take under 1/4 of NFS's "
              "time, 1/10 of its messages, moving comparable bytes",
              _pair(_cells_table4(16, 0)), _check_table4),
        Claim("table4.iscsi-rand-write",
              "iSCSI random writes take over twice its sequential writes' "
              "time (paper: 5 s vs 2 s)", _pair(_cells_table4(16, 0)),
              _check_rand_write,
              deviation="the simulated allocator lays randomly written "
                        "blocks out contiguously, so their flush costs "
                        "what a sequential flush costs"),
    ))


# -- Table 5: PostMark ------------------------------------------------------------

# Paper @ 100 K transactions: (NFS s, iSCSI s, NFS msgs, iSCSI msgs)
TABLE5_PAPER = {
    1000: (146, 12, 371_963, 101),
    5000: (201, 35, 451_415, 276),
    25000: (516, 208, 639_128, 66_965),
}


def _postmark(kind: str, files: int, transactions: int, **extra) -> Cell:
    return make_cell("postmark", kind=kind, files=files,
                     transactions=transactions, **extra)


def _cells_table5(transactions: int, files: int) -> List[Cell]:
    return [_postmark(kind, files, transactions)
            for kind in ("nfsv3", "nfs-enhanced", "iscsi")]


def _render_table5(results, transactions: int, files: int) -> None:
    rows = []
    for cell in _cells_table5(transactions, files):
        record = results[cell.id]
        rows.append([cell.params["kind"],
                     "%.2fs" % record["completion_time"],
                     record["messages"],
                     "%.0f%%" % (record["server_cpu"] * 100),
                     "%.0f%%" % (record["client_cpu"] * 100)])
    print("PostMark: %d transactions, %d files" % (transactions, files))
    print_table(["stack", "time", "messages", "srv CPU", "cli CPU"], rows)


# 8,000 transactions: the paper's 100 K scaled by 1/12.5.
TABLE5_CELLS = {(kind, files): _postmark(kind, files, 8000)
                for files in (1000, 5000) for kind in ("nfsv3", "iscsi")}


def _check_table5(r):
    pools = [(r["nfsv3", files], r["iscsi", files]) for files in (1000, 5000)]
    gaps = [nfs["messages"] / max(1, iscsi["messages"]) for nfs, iscsi in pools]
    return ({"NFS/iSCSI time": [nfs["completion_time"] / iscsi["completion_time"]
                                for nfs, iscsi in pools],
             "messages": gaps},
            all(iscsi["completion_time"] < nfs["completion_time"] / 4
                and iscsi["messages"] < nfs["messages"] / 10
                for nfs, iscsi in pools)
            and gaps[1] < gaps[0])


def _check_nfs_time(r):
    scaled = r["nfsv3", 1000]["completion_time"] * 12.5
    return {"NFS s at 100 K": scaled}, abs(scaled / 146 - 1) <= 0.25


TABLE5 = Artifact(
    "table5", "Table 5 (PostMark)",
    options={"transactions": 5000, "files": 1000},
    cells=_cells_table5, render=_render_table5, paper=TABLE5_PAPER,
    claims=(
        Claim("table5.iscsi-wins",
              "on 1,000 and 5,000 files iSCSI takes under 1/4 of NFS's time "
              "and 1/10 of its messages (paper: 12x, 3,700x at 1,000), a "
              "gap that narrows as the pool grows", TABLE5_CELLS,
              _check_table5),
        Claim("table5.nfs-time",
              "NFS v3 runs 100 K transactions on 1,000 files in 146 s +-25% "
              "(scaled x12.5)", TABLE5_CELLS, _check_nfs_time,
              deviation="the simulated client sends ~6 messages per "
                        "transaction against the paper's ~3.7 (creat "
                        "carries the close-to-open GETATTR, each close a "
                        "COMMIT), so NFS runs ~2.5x the paper's time"),
    ))


# -- Tables 6 and 7: TPC-C and TPC-H ----------------------------------------------


def _cells_table6(transactions: int) -> List[Cell]:
    return [make_cell("tpcc", kind=kind, transactions=transactions)
            for kind in ("nfsv3", "iscsi")]


def _render_database(results, cells: List[Cell], metric: str,
                     title: str) -> None:
    rows = []
    base = None
    for cell in cells:
        record = results[cell.id]
        base = base or record["throughput"]
        rows.append([cell.params["kind"],
                     "%.2f" % (record["throughput"] / base),
                     record["messages"],
                     "%.0f%%" % (record["server_cpu"] * 100)])
    print(title)
    print_table(["stack", metric, "messages", "srv CPU"], rows)


def _render_table6(results, transactions: int) -> None:
    _render_database(results, _cells_table6(transactions), "tpmC (norm)",
                     "TPC-C-like OLTP: %d transactions" % transactions)


def _cells_table7(queries: int, mb: int) -> List[Cell]:
    return [make_cell("tpch", kind=kind, queries=queries, mb=mb)
            for kind in ("nfsv3", "iscsi")]


def _render_table7(results, queries: int, mb: int) -> None:
    _render_database(results, _cells_table7(queries, mb), "QphH (norm)",
                     "TPC-H-like DSS: %d queries over %d MB" % (queries, mb))


def _database_claim(claim_id: str, cells: List[Cell], paper: Dict[str, str],
                    throughput: Tuple[float, float],
                    messages: Tuple[float, float]) -> Claim:
    """iSCSI's normalized throughput and the NFS/iSCSI message ratio in
    their bands, NFS server CPU over 1.5x iSCSI's, at the rendered point."""
    def check(r):
        nfs, iscsi = r["nfsv3"], r["iscsi"]
        norm = iscsi["throughput"] / nfs["throughput"]
        ratio = nfs["messages"] / iscsi["messages"]
        return ({"normalized": norm, "NFS/iSCSI msgs": ratio,
                 "server CPU": (nfs["server_cpu"], iscsi["server_cpu"])},
                throughput[0] < norm < throughput[1]
                and messages[0] < ratio < messages[1]
                and nfs["server_cpu"] > 1.5 * iscsi["server_cpu"])

    return Claim(
        claim_id, "iSCSI's normalized throughput is in %s-%s (paper: %s), "
        "NFS/iSCSI messages in %s-%s (%s), NFS server CPU over 1.5x "
        "iSCSI's (%s)" % (throughput + (paper["normalized"],) + messages
                          + (paper["messages"], paper["server_cpu"])),
        _pair(cells), check)


TABLE6_PAPER = {"normalized": "1.08", "messages": "517 K vs 531 K",
                "server_cpu": "13% vs 7%"}
TABLE7_PAPER = {"normalized": "1.07", "messages": "262 K vs 63 K",
                "server_cpu": "20% vs 11%"}

TABLE6 = Artifact(
    "table6", "Table 6 (TPC-C)",
    options={"transactions": 1000},
    cells=_cells_table6, render=_render_table6, paper=TABLE6_PAPER,
    claims=(_database_claim("table6.marginal-difference", _cells_table6(1000),
                            TABLE6_PAPER, (0.85, 1.30), (0.7, 1.4)),))

TABLE7 = Artifact(
    "table7", "Table 7 (TPC-H)",
    options={"queries": 4, "mb": 128},
    cells=_cells_table7, render=_render_table7, paper=TABLE7_PAPER,
    claims=(_database_claim("table7.comparable", _cells_table7(4, 128),
                            TABLE7_PAPER, (0.9, 1.35), (3.0, 7.0)),))


# -- Table 8: kernel-tree operations ------------------------------------------------

# Paper, full kernel tree: (NFS s, iSCSI s)
TABLE8_PAPER = {"tar": (60, 5), "ls": (12, 6), "make": (222, 193), "rm": (40, 22)}


def _cells_table8(dirs: int) -> List[Cell]:
    return [make_cell("kernel_tree", kind=kind, dirs=dirs)
            for kind in ("nfsv3", "iscsi")]


def _render_table8(results, dirs: int) -> None:
    rows = []
    total_files = 0
    for cell in _cells_table8(dirs):
        record = results[cell.id]
        total_files = record["total_files"]
        rows.append([cell.params["kind"],
                     "%.2fs" % record["tar_seconds"],
                     "%.2fs" % record["ls_seconds"],
                     "%.2fs" % record["make_seconds"],
                     "%.2fs" % record["rm_seconds"]])
    print("kernel-tree ops (%d files)" % total_files)
    print_table(["stack", "tar", "ls -lR", "make", "rm -rf"], rows)


def _tree(r) -> Dict[str, Tuple[float, float]]:
    """(NFS v3, iSCSI) seconds per phase."""
    return {phase: (r["nfsv3"][phase + "_seconds"], r["iscsi"][phase + "_seconds"])
            for phase in ("tar", "ls", "make", "rm")}


def _check_table8(r):
    tree = _tree(r)
    (nt, it), (nl, il), (nm, im), (nr, ir) = tree.values()
    return (tree, it < nt / 3 and il < nl and ir < nr
            and im < nm and im > 0.5 * nm)


def _check_rm_gap(r):
    nfs, iscsi = _tree(r)["rm"]
    return {"rm -rf NFS/iSCSI s": (nfs, iscsi)}, nfs < 3 * iscsi


# The rendered 12 top-level directories: roughly a tenth of a kernel tree.
TABLE8 = Artifact(
    "table8", "Table 8 (kernel tree)",
    options={"dirs": 12},
    cells=_cells_table8, render=_render_table8, paper=TABLE8_PAPER,
    claims=(
        Claim("table8.tree-ops",
              "iSCSI wins the meta-data-heavy phases (tar in under 1/3 of "
              "NFS's time, ls -lR, rm -rf); the CPU-bound make is near "
              "parity, iSCSI faster by under 2x", _pair(_cells_table8(12)),
              _check_table8),
        Claim("table8.rm-gap",
              "NFS takes under 3x iSCSI's time for rm -rf (paper: 40 vs "
              "22 s)", _pair(_cells_table8(12)),
              _check_rm_gap,
              deviation="the simulated iSCSI delete path gains more from "
                        "cancelling short-lived journal state than the "
                        "2004 ext3 did"),
    ))


# -- Tables 9 and 10: server and client CPU ----------------------------------------

TABLE9_PAPER = {"postmark": (77, 13), "tpcc": (13, 7), "tpch": (20, 11)}
TABLE10_PAPER = {"postmark": (2, 25), "tpcc": (100, 100), "tpch": (100, 100)}


def _cells_tables910(transactions: int) -> List[Cell]:
    cells = []
    for kind in ("nfsv3", "iscsi"):
        cells.append(_postmark(kind, 500, transactions))
        cells.append(make_cell("tpcc", kind=kind,
                               transactions=max(200, transactions // 8)))
        cells.append(make_cell("tpch", kind=kind, queries=3, mb=96))
    return cells


def _render_tables910(results, transactions: int) -> None:
    rows = []
    cells = _cells_tables910(transactions)
    for kind, stack_cells in (("nfsv3", cells[:3]), ("iscsi", cells[3:])):
        rows.append([kind] + ["%.0f%%/%.0f%%" % (
            results[cell.id]["server_cpu"] * 100,
            results[cell.id]["client_cpu"] * 100) for cell in stack_cells])
    print("CPU utilization (server/client)")
    print_table(["stack", "PostMark", "TPC-C", "TPC-H"], rows)


# The macro-benchmarks both CPU tables were measured on.
CPU_CELLS = {(bench, kind): cell for kind in ("nfsv3", "iscsi")
             for bench, cell in (
                 ("postmark", _postmark(kind, 1000, 6000)),
                 ("tpcc", make_cell("tpcc", kind=kind, transactions=800)),
                 ("tpch", make_cell("tpch", kind=kind, queries=3, mb=96)))}


def _cpu(r, key: str) -> Dict[str, Tuple[float, float]]:
    """(NFS v3, iSCSI) CPU utilization per benchmark."""
    return {bench: (r[bench, "nfsv3"][key], r[bench, "iscsi"][key])
            for bench in ("postmark", "tpcc", "tpch")}


def _check_table9(r):
    cpu = _cpu(r, "server_cpu")
    return (cpu, all(nfs > 1.5 * iscsi for nfs, iscsi in cpu.values())
            and cpu["postmark"][0] > 3 * cpu["postmark"][1])


def _check_table10(r):
    cpu = _cpu(r, "client_cpu")
    nfs, iscsi = cpu["postmark"]
    return (cpu, iscsi > 5 * nfs and nfs < 0.15
            and all(value > 0.4 for bench in ("tpcc", "tpch")
                    for value in cpu[bench]))


def _check_tpch_saturation(r):
    tpch = _cpu(r, "client_cpu")["tpch"]
    return {"TPC-H client CPU": tpch}, all(value >= 0.9 for value in tpch)


TABLES910 = Artifact(
    "table9/table10", "Tables 9/10 (CPU utilization)",
    options={"transactions": 4000},
    cells=_cells_tables910, render=_render_tables910,
    paper={"server": TABLE9_PAPER, "client": TABLE10_PAPER},
    claims=(
        Claim("table9.server-cpu",
              "NFS server CPU exceeds 1.5x iSCSI's on PostMark, TPC-C and "
              "TPC-H, and 3x on PostMark (paper: 77/13, 13/7, 20/11%)",
              CPU_CELLS, _check_table9),
        Claim("table10.client-cpu",
              "on PostMark the iSCSI client, running the file system, burns "
              "over 5x the idle (<15%) NFS client's CPU; on TPC-C/H both "
              "run above 40%", CPU_CELLS, _check_table10),
        Claim("table10.tpch-saturation",
              "both clients saturate on TPC-H, at 90% CPU or more (paper: "
              "100%)", CPU_CELLS,
              _check_tpch_saturation,
              deviation="at the scaled 96 MB, 3-query run one cold scan "
                        "dominates; longer runs approach saturation"),
    ))


# -- Figure 3: iSCSI meta-data update aggregation ----------------------------------

FIG3_BATCHES = (1, 4, 16, 64, 256, 1024)


def _batching(op: str, batch: int, **extra) -> Cell:
    return make_cell("batching", op=op, batch=batch, **extra)


def _cells_fig3(op: str) -> List[Cell]:
    return [_batching(op, batch) for batch in FIG3_BATCHES]


def _render_fig3(results, op: str) -> None:
    rows = [[cell.params["batch"], "%.2f" % results[cell.id]]
            for cell in _cells_fig3(op)]
    print_table(["batch", "msgs/op"], rows)


FIG3_OPS = ("creat", "mkdir", "chmod", "link", "stat", "access", "write")


def _check_fig3(r):
    return ({"mkdir": [r["mkdir", n] for n in (1, 16, 1024)],
             "max at 1024": max(r[op, 1024] for op in FIG3_OPS)},
            all(r[op, 1] >= r[op, 16] >= r[op, 1024] and r[op, 1024] < 1.0
                for op in FIG3_OPS)
            and r["mkdir", 1] >= 5
            and r["stat", 1024] < 0.1 and r["access", 1024] < 0.1)


FIG3 = Artifact(
    "fig3", "Fig. 3 (batching)",
    options={"op": "mkdir"},
    cells=_cells_fig3, render=_render_fig3,
    claims=(
        Claim("fig3.aggregation",
              "amortized messages/op fall from batch 1 to 16 to 1024, ending "
              "under 1 for all seven ops; a lone mkdir costs 5+, cached stat "
              "and access under 0.1",
              {(op, n): _batching(op, n)
               for op in FIG3_OPS for n in (1, 16, 1024)}, _check_fig3),
    ))


# -- Figure 4: messages vs directory depth ------------------------------------------

FIG4_DEPTHS = tuple(range(0, 17, 4))


def _depth(op: str, kind: str, depth: int, warm: bool, **extra) -> Cell:
    return make_cell("depth_point", op=op, kind=kind, depth=depth, warm=warm,
                     **extra)


def _cells_fig4(op: str) -> List[Cell]:
    cells = [_depth(op, kind, depth, False)
             for kind in ("nfsv3", "nfsv4", "iscsi")
             for depth in FIG4_DEPTHS]
    cells.extend(_depth(op, "iscsi", depth, True) for depth in FIG4_DEPTHS)
    return cells


def _render_fig4(results, op: str) -> None:
    rows = []
    for kind in ("nfsv3", "nfsv4", "iscsi"):
        rows.append([kind + " cold"] + [
            results[_depth(op, kind, depth, False).id]
            for depth in FIG4_DEPTHS])
    rows.append(["iscsi warm"] + [
        results[_depth(op, "iscsi", depth, True).id]
        for depth in FIG4_DEPTHS])
    print("messages vs depth [%s]" % op)
    print_table(["series"] + ["d=%d" % d for d in FIG4_DEPTHS], rows)


FIG4_OPS = ("mkdir", "chdir", "readdir")
# Cold messages per directory level: ~1 for v3, ~2 for v4 and iSCSI.
FIG4_SLOPES = {"nfsv3": (0.9, 1.1), "nfsv4": (1.8, 2.2), "iscsi": (1.8, 2.3)}


def _check_fig4(r):
    slopes = {kind: [(r[op, kind, False, 16] - r[op, kind, False, 0]) / 16.0
                     for op in FIG4_OPS] for kind in FIG4_SLOPES}
    drift = max(abs(r[op, kind, True, 16] - r[op, kind, True, 0])
                for op in FIG4_OPS for kind in ("nfsv3", "iscsi"))
    return (dict(slopes, **{"warm drift": drift}),
            all(low <= slope <= high for kind, (low, high) in FIG4_SLOPES.items()
                for slope in slopes[kind]) and drift <= 1)


FIG4 = Artifact(
    "fig4", "Fig. 4 (depth)",
    options={"op": "mkdir"},
    cells=_cells_fig4, render=_render_fig4,
    claims=(
        Claim("fig4.depth",
              "cold mkdir/chdir/readdir pay one message per directory level "
              "on NFS v3 (0.9-1.1), two on v4 (1.8-2.2) and, in tandem, "
              "iSCSI (1.8-2.3); warm v3/iSCSI curves stay flat (+-1)",
              {(op, kind, warm, d): _depth(op, kind, d, warm)
               for op in FIG4_OPS for d in (0, 16)
               for kind, warm in (("nfsv3", False), ("nfsv4", False),
                                  ("iscsi", False), ("nfsv3", True),
                                  ("iscsi", True))}, _check_fig4),
    ))


# -- Figure 5: messages vs I/O size -------------------------------------------------

FIG5_SIZES = tuple(2 ** e for e in range(7, 17))
FIG5_MODES = ("cold-read", "warm-read", "cold-write")


def _io(kind: str, mode: str, size: int) -> Cell:
    return make_cell("io_size_point", kind=kind, mode=mode, size=size)


def _cells_fig5() -> List[Cell]:
    return [_io(kind, mode, size)
            for mode in FIG5_MODES
            for kind in SYSCALL_KINDS
            for size in FIG5_SIZES]


def _render_fig5(results) -> None:
    for mode in FIG5_MODES:
        print("\n%s" % mode)
        rows = []
        for kind in SYSCALL_KINDS:
            rows.append([kind] + [results[_io(kind, mode, size).id]
                                  for size in FIG5_SIZES])
        print_table(["stack"] + [str(s) for s in FIG5_SIZES], rows)


def _check_fig5(r):
    cold, write = ({kind: r[kind, mode, 65536] - r[kind, mode, low]
                    for kind in SYSCALL_KINDS}
                   for mode, low in (("cold-read", 8192), ("cold-write", 4096)))
    warm = {kind: [r[kind, "warm-read", size] for size in FIG5_SIZES]
            for kind in SYSCALL_KINDS}
    iscsi_cold = r["iscsi", "cold-read", 65536] - r["iscsi", "cold-read", 128]
    return ({"v2/v3 cold read 8K->64K +": [cold[kind]
                                           for kind in SYSCALL_KINDS[:2]],
             "iSCSI 128B->64K +": iscsi_cold,
             "v2/v3/v4/iSCSI max warm": [max(warm[kind])
                                         for kind in SYSCALL_KINDS],
             "v2/v3/v4 write 4K->64K +": [write[kind]
                                          for kind in SYSCALL_KINDS[:3]]},
            cold["nfsv2"] >= 6 and cold["nfsv3"] >= 6
            and r["nfsv4", "cold-read", 65536] < r["nfsv3", "cold-read", 65536]
            and iscsi_cold <= 3
            and all(max(counts) <= 3 for counts in warm.values())
            and max(warm["nfsv4"]) == 0 and set(warm["iscsi"]) == {2}
            and write["nfsv2"] > 0 and write["nfsv3"] <= 1
            and write["nfsv4"] <= 1)


FIG5 = Artifact(
    "fig5", "Fig. 5 (I/O sizes)",
    cells=_cells_fig5, render=_render_fig5,
    claims=(
        Claim("fig5.io-sizes",
              "cold v2/v3 reads climb past the 8 KB limit, v4 transfers more "
              "per message, iSCSI stays flat; warm reads cost <= 3 (v4 0, "
              "iSCSI its 2-message atime commit); only v2 writes rise",
              {(kind, mode, size): _io(kind, mode, size)
               for kind in SYSCALL_KINDS for mode in FIG5_MODES
               for size in FIG5_SIZES}, _check_fig5),
    ))


# -- Figure 6: completion time vs RTT -----------------------------------------------

FIG6_RTTS = (0.010, 0.030, 0.050, 0.070, 0.090)


def _seqrand(kind: str, mode: str, mb: int, **extra) -> Cell:
    return make_cell("seqrand", kind=kind, mode=mode, mb=mb, **extra)


def _cells_fig6(mb: int) -> List[Cell]:
    return [_seqrand(kind, mode, mb, rtt=rtt)
            for mode in ("seq-read", "seq-write")
            for kind in ("nfsv3", "iscsi")
            for rtt in FIG6_RTTS]


def _render_fig6(results, mb: int) -> None:
    for mode, label in (("seq-read", "read"), ("seq-write", "write")):
        print("\nsequential %ss of a %d MB file" % (label, mb))
        rows = []
        for kind in ("nfsv3", "iscsi"):
            row = [kind]
            for rtt in FIG6_RTTS:
                record = results[_seqrand(kind, mode, mb, rtt=rtt).id]
                row.append("%.1fs" % record["completion_time"])
            rows.append(row)
        print_table(["stack"] + ["%dms" % int(r * 1000) for r in FIG6_RTTS],
                    rows)


def _check_fig6(r):
    t = {(kind, mode): [r[kind, mode, rtt]["completion_time"]
                        for rtt in FIG6_RTTS]
         for kind in ("nfsv3", "iscsi") for mode in ("seq-read", "seq-write")}
    reads = [t[kind, "seq-read"] for kind in ("nfsv3", "iscsi")]
    nfs_w, iscsi_w = t["nfsv3", "seq-write"], t["iscsi", "seq-write"]
    return ({"%s %s s at 10/90 ms" % (kind, mode[4:]): (times[0], times[-1])
             for (kind, mode), times in t.items()},
            all(times[-1] > times[0] * 3 for times in reads)
            and reads[0][-1] > reads[1][-1] * 1.3
            and max(iscsi_w) < 2 * min(iscsi_w) + 1.0
            and nfs_w[-1] > nfs_w[0] * 3 and nfs_w[-1] > iscsi_w[-1] * 10)


FIG6 = Artifact(
    "fig6", "Fig. 6 (RTT sweep)",
    options={"mb": 4},
    cells=_cells_fig6, render=_render_fig6,
    claims=(
        Claim("fig6.rtt",
              "from 10 to 90 ms RTT both stacks' reads slow over 3x, NFS's "
              "to over 1.3x iSCSI's; iSCSI writes stay flat while NFS "
              "writes slow over 3x, to over 10x iSCSI's",
              {(kind, mode, rtt): _seqrand(kind, mode, 4, rtt=rtt)
               for mode in ("seq-read", "seq-write")
               for kind in ("nfsv3", "iscsi") for rtt in FIG6_RTTS},
              _check_fig6),
    ))


# -- Figure 7: directory sharing in the traces ---------------------------------------

TRACE_LIMIT = 150_000


def _cells_fig7() -> List[Cell]:
    return [make_cell("sharing", profile=profile, limit=TRACE_LIMIT)
            for profile in ("eecs", "campus")]


def _render_fig7(results) -> None:
    from .traces import CAMPUS_PROFILE, EECS_PROFILE

    names = {"eecs": EECS_PROFILE.name, "campus": CAMPUS_PROFILE.name}
    for cell in _cells_fig7():
        print("\n%s trace" % names[cell.params["profile"]])
        rows = []
        for point in results[cell.id]:
            rows.append(["%.0f" % point["interval"],
                         "%.3f" % point["read_by_one"],
                         "%.3f" % point["read_by_multiple"],
                         "%.3f" % point["written_by_one"],
                         "%.3f" % point["written_by_multiple"],
                         "%.3f" % point["read_write_shared"]])
        print_table(["T", "r-by-1", "r-by-N", "w-by-1", "w-by-N", "rw"],
                    rows)


def _check_fig7(r):
    at_1000 = {profile: next(point for point in trace
                             if point["interval"] == 1000)
               for profile, trace in r.items()}
    eecs = at_1000["eecs"]
    return ({"rw-shared at 1000 s": [point["read_write_shared"]
                                     for point in at_1000.values()],
             "EECS r-by-N/w-by-N": (eecs["read_by_multiple"],
                                    eecs["written_by_multiple"])},
            all(point["read_by_one"] > point["read_by_multiple"]
                and point["written_by_one"] > point["written_by_multiple"]
                for trace in r.values() for point in trace)
            and all(point["read_write_shared"] < 0.06
                    for point in at_1000.values())
            and eecs["read_by_multiple"] > 3 * eecs["written_by_multiple"])


FIG7 = Artifact(
    "fig7", "Fig. 7 (trace sharing)",
    cells=_cells_fig7, render=_render_fig7,
    paper={"read_write_shared_at_1000s": {"eecs": 0.04, "campus": 0.035}},
    claims=(
        Claim("fig7.sharing",
              "single-client access dominates at every interval; under 6% "
              "of directories are read-write shared at T = 1000 s (paper: "
              "4%, 3.5%); EECS read-sharing exceeds 3x its write-sharing",
              {cell.params["profile"]: cell for cell in _cells_fig7()},
              _check_fig7),
    ))


# -- Section 7: the consistent meta-data cache and enhanced NFS ---------------------


def _metadata(profile: str) -> Cell:
    if profile == "eecs":
        # EECS is the kind's default: leaving it out keeps this the one
        # cell `repro all` renders.
        return make_cell("metadata_cache", limit=TRACE_LIMIT)
    return make_cell("metadata_cache", limit=TRACE_LIMIT, profile=profile)


def _cells_sec7() -> List[Cell]:
    return [_metadata("eecs")]


def _render_sec7(results) -> None:
    sweep = results[_metadata("eecs").id]
    rows = []
    for size in sorted(sweep, key=int):
        record = sweep[size]
        rows.append([int(size), record["baseline_messages"],
                     record["consistent_messages"],
                     "%.1f%%" % (record["reduction"] * 100),
                     "%.1e" % record["callback_ratio"]])
    print("strongly-consistent meta-data cache (EECS-like trace)")
    print_table(["cache", "baseline", "consistent", "reduction", "cb ratio"],
                rows)


SEC7_CELLS = {profile: _metadata(profile) for profile in ("eecs", "campus")}


def _check_sec7(r):
    eecs, campus = (r[profile]["1024"] for profile in ("eecs", "campus"))
    return ({"EECS/Campus reduction": (eecs["reduction"],
                                       campus["reduction"]),
             "callback ratio": (eecs["callback_ratio"],
                                campus["callback_ratio"])},
            eecs["reduction"] > 0.70 and campus["reduction"] > 0.40
            and all(sweep["1024"]["callback_ratio"] < 0.10
                    and sweep["4096"]["reduction"] >= sweep["16"]["reduction"]
                    for sweep in r.values()))


def _check_callback_bound(r):
    ratio = r["eecs"]["1024"]["callback_ratio"]
    return {"EECS callback ratio": ratio}, ratio < 1e-4


SEC7 = Artifact(
    "sec7", "Section 7 (meta-data cache)",
    cells=_cells_sec7, render=_render_sec7,
    paper={"reduction_at_1024": 0.70, "callback_ratio": 1e-4},
    claims=(
        Claim("sec7.metadata-cache",
              "a consistent cache of 2^10 directories removes over 70% of "
              "EECS meta-data messages (Campus 40%), the more the larger the "
              "cache, with callbacks under 1/10 of what they replace",
              SEC7_CELLS, _check_sec7),
        Claim("sec7.callback-bound",
              "the EECS callback ratio at 2^10 entries is below the paper's "
              "bound, read as 1e-4", SEC7_CELLS,
              _check_callback_bound,
              deviation="the paper's printed bound is illegible in the "
                        "archival scan; what survives, callbacks as a small "
                        "fraction of the traffic they replace, holds"),
    ))


def _check_enhanced(r):
    plain, enhanced, iscsi = (r[kind] for kind in ("nfsv3", "nfs-enhanced",
                                                   "iscsi"))
    warm = [r[op] for op in ("chdir", "stat", "access")]
    return ({"time v3/enhanced/iSCSI": [record["completion_time"] for record
                                        in (plain, enhanced, iscsi)],
             "messages v3/enhanced": (plain["messages"], enhanced["messages"]),
             "warm chdir/stat/access": warm},
            enhanced["completion_time"] < plain["completion_time"] / 5
            and enhanced["messages"] < plain["messages"] / 3
            and enhanced["completion_time"] < 10 * iscsi["completion_time"]
            and all(count == 0 for count in warm))


ENHANCED = Artifact(
    "sec7-enhanced", "Section 7 (enhanced NFS)",
    claims=(
        Claim("sec7-enhanced.postmark",
              "directory delegation and the consistent cache make NFS "
              "PostMark over 5x faster with under 1/3 of the messages, "
              "within 10x of iSCSI; warm meta-data reads become free",
              dict({kind: _postmark(kind, 1000, 8000)
                    for kind in ("nfsv3", "nfs-enhanced", "iscsi")},
                   **{op: _depth(op, "nfs-enhanced", 0, True)
                      for op in ("chdir", "stat", "access")}),
              _check_enhanced),
    ))


# -- Section 6 what-ifs the paper could only speculate about --------------------------


def _check_write_fixes(r):
    stock, fixed, iscsi = (r[name] for name in ("stock", "fixed", "iscsi"))
    return ({"time stock/fixed/iSCSI": [record["completion_time"] for record
                                        in (stock, fixed, iscsi)],
             "messages stock/fixed": (stock["messages"], fixed["messages"])},
            fixed["completion_time"] < stock["completion_time"] / 3
            and fixed["messages"] < stock["messages"] / 8
            and fixed["completion_time"] >= iscsi["completion_time"])


# "An increase in the pending writes limit and optimizations such as
# spatial write aggregation in NFS will eliminate this performance gap":
# exactly those two changes to the stock v3 client, Table 4's 16 MB write.
WHATIF61 = Artifact(
    "whatif-6.1", "Section 6.1 what-if (NFS write fixes)",
    claims=(
        Claim("whatif-6.1.write-fixes",
              "a 64-page write limit and 128 KB write aggregation cut NFS "
              "sequential write time over 3x and messages over 8x, yet "
              "close-to-open semantics keep it no faster than iSCSI",
              {"stock": _seqrand("nfsv3", "seq-write", 16),
               "fixed": _seqrand("nfsv3", "seq-write", 16, overrides={"nfs": {
                   "max_pending_writes": 64, "pages_per_flush_rpc": 32}}),
               "iscsi": _seqrand("iscsi", "seq-write", 16)},
              _check_write_fixes),
    ))


def _check_compounds(r):
    separate, compound = ([r[flag, d] for d in (2, 4, 8, 16)]
                          for flag in (False, True))
    slopes = [(counts[-1] - counts[0]) / 14.0 for counts in (separate,
                                                               compound)]
    return ({"separate": separate, "compound": compound},
            all(c < s for c, s in zip(compound, separate))
            and slopes[0] >= 1.8 and slopes[1] <= 0.3)


# Compound RPCs "aggregate related meta-data requests"; the paper could
# not say by how much.  Cold v4 stat with and without compound walks.
WHATIF63 = Artifact(
    "whatif-6.3", "Section 6.3 what-if (v4 compounds)",
    claims=(
        Claim("whatif-6.3.compounds",
              "compound walks cut cold v4 stat messages at depths 2-16 and "
              "flatten the depth tax from 1.8+ to at most 0.3 per level",
              {(flag, d): _depth("stat", "nfsv4", d, False, overrides={
                  "nfs": {"compound_rpcs": flag}})
               for flag in (False, True) for d in (2, 4, 8, 16)},
              _check_compounds),
    ))


# -- Ablations: each design knob DESIGN.md credits, switched -------------------------


def _knob(claim_id: str, finding: str, cells: List[Cell],
          metric=lambda record: record) -> Claim:
    """A claim that ``metric`` strictly falls from each cell to the next."""
    def check(r):
        values = [metric(r[index]) for index in range(len(cells))]
        return ({"along the knob": values},
                all(a > b for a, b in zip(values, values[1:])))
    return Claim(claim_id, finding, dict(enumerate(cells)), check)


def _check_v4_access(r):
    return {"ACCESS on/off": (r[True], r[False])}, r[True] >= r[False] + 8


ABLATIONS = Artifact(
    "ablations", "Ablations",
    claims=(
        _knob("ablations.commit-interval",
              "a 1 ms journal commit interval costs more amortized mkdir "
              "messages (batch 64) than the 5 s default",
              [_batching("mkdir", 64, overrides={
                  "ext3": {"journal_commit_interval": interval}})
               for interval in (0.001, 5.0)]),
        _knob("ablations.write-limit",
              "a 2-page pending-write limit makes an 8 MB NFS write slower "
              "than a 64-page one",
              [_seqrand("nfsv3", "seq-write", 8, overrides={
                  "nfs": {"max_pending_writes": limit}}) for limit in (2, 64)],
              lambda record: record["completion_time"]),
        _knob("ablations.attr-cache",
              "shorter attribute validity (0.5 s, 3 s, 60 s) costs more "
              "consistency messages over 30 spaced re-reads",
              [make_cell("attr_cache", validity=validity)
               for validity in (0.5, 3.0, 60.0)]),
        _knob("ablations.transfer-size",
              "a larger rsize (4, 8, 32 KB) needs fewer messages for 4 MB of "
              "64 KB reads",
              [_seqrand("nfsv3", "seq-read", 4, chunk=65536,
                        overrides={"nfs": {"rsize": rsize}})
               for rsize in (4096, 8192, 32768)],
              lambda record: record["messages"]),
        Claim("ablations.v4-access",
              "per-component ACCESS checks add at least 8 messages to a cold "
              "v4 chdir at depth 8",
              {check: _depth("chdir", "nfsv4", 8, False, overrides={
                  "nfs": {"access_check_per_component": check}})
               for check in (True, False)}, _check_v4_access),
        _knob("ablations.inode-locality",
              "one inode per block costs iSCSI PostMark more messages than 32",
              [_postmark("iscsi", 400, 1500, overrides={
                  "ext3": {"inodes_per_block": per_block}})
               for per_block in (1, 32)],
              lambda record: record["messages"]),
    ))

# ``repro all``'s section order; claims-only entries render nothing.
ARTIFACTS: Tuple[Artifact, ...] = (
    QUICK, TABLE2, TABLE3, TABLE4, TABLE5, TABLE6, TABLE7, TABLE8, TABLES910,
    FIG3, FIG4, FIG5, FIG6, FIG7, SEC7, ENHANCED, WHATIF61, WHATIF63,
    ABLATIONS,
)
