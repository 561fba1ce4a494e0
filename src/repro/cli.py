"""Command-line front end: regenerate any of the paper's artifacts.

Usage::

    python -m repro list
    python -m repro all [--jobs N] [--no-cache]
    python -m repro verify [--jobs N]
    python -m repro table2 [--depth 0 3] [--jobs N]
    python -m repro table4 [--mb 16] [--jobs N]
    python -m repro table5 [--transactions 8000] [--files 1000]
    python -m repro fig4 --op mkdir
    python -m repro fig6 [--mb 4]
    python -m repro fig7
    python -m repro sec7
    python -m repro quick [--san] [--telemetry]
    python -m repro scale [--nclients 64 256 1024] [--servers 1 4] [--jobs N]
    python -m repro scale --compare BASELINE.json CURRENT.json
    python -m repro faults <workload> [--stack KIND ...] [--plan P ...]
    python -m repro trace <workload> [--stack KIND] [--out FILE] [--tree]
    python -m repro bench [--suite quick] [--out FILE] [--jobs N]
    python -m repro bench --compare OLD.json NEW.json [--format text|json]
    python -m repro dash <workload> [--stack KIND ...] [--html FILE]
    python -m repro explain <workload> [--stack-a KIND] [--stack-b KIND]
    python -m repro explain <workload> --bench-a OLD.json --bench-b NEW.json
    python -m repro lint [paths ...] [--format text|json] [--debt]

Each artifact subcommand runs the corresponding experiment at a tractable
scale and prints the same rows the paper reports.  Every artifact is
described once, in :data:`repro.paper.ARTIFACTS`: a list of pure
experiment *cells* (one stack x workload x parameter point), a renderer,
the paper's reference numbers and its claims.  The cells run on the
:class:`~repro.core.runner.ExperimentRunner`: pass ``--jobs N`` to fan
them out over N worker processes — the merged output is byte-identical
to a serial run.  ``repro all`` regenerates the whole paper in one go
and additionally backs the cells with the on-disk result cache
(``--no-cache`` disables it), so an unchanged cell costs a file read on
re-run.  ``repro verify`` checks every claim against the cached cells,
prints the paper-vs-measured scoreboard and exits 1 when a claim that is
not a listed deviation fails.

``trace`` records and exports a run; ``bench`` runs the regression
suites (see the README's "Profiling & benchmarking" section); ``repro
list`` enumerates every subcommand.

``lint`` runs the simulator-discipline linter (repro.check.simlint)
over source trees (``--debt`` audits its suppressions); ``--san`` on
the workload-running subcommands
(quick, trace, bench, faults) attaches the runtime sanitizers
(repro.check.simsan) — checks observe without perturbing, so sanitized
outputs are bit-identical to unsanitized ones.

``dash`` renders per-tier utilization/queue-depth timelines from the
streaming telemetry layer (repro.obs.telemetry) as an ASCII dashboard
(plus ``--html`` self-contained export); ``--telemetry`` on quick,
bench, and faults carries the same collector alongside the normal run —
rollups and watcher findings are summarized on stderr while stdout and
``BENCH_*.json`` stay byte-identical.  ``repro all`` additionally
prints run heartbeats (cells done, cache hits, wall rate) to stderr.

``scale`` sweeps the protocol-aware server farm (repro.sim.farm) —
``nclients`` (to 1k+) x ``servers`` (pNFS-style striped exports) x
``connections`` (MC/S channels) x ``sharing`` — and writes a schema-2
document (``BENCH_scale.json``) whose every field is simulated outcome,
byte-comparable across hosts (``scale --compare`` diffs two such
documents exactly).

``explain`` is the differential-diagnosis front end
(repro.obs.explain): it runs one workload on two stacks — or loads the
same case from two ``BENCH_*.json`` files — and reports where the
completion-time delta comes from (per-layer attribution summing exactly
to the total, per-op message drift, queueing deltas, ranked blame) as
text, JSON, or self-contained HTML.  ``bench --compare`` appends the
same report for every regressed case.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from . import paper
from .core.comparison import STACK_KINDS, make_stack
from .core.runner import Cell, ExperimentRunner, make_cell
from .obs.bench import SUITES as BENCH_SUITES
from .obs.bench import WORKLOADS as TRACE_WORKLOADS
from .paper import print_table


def _runner(args) -> ExperimentRunner:
    """Build the runner an artifact subcommand asked for.

    Individual artifact commands parallelize with ``--jobs`` but never
    touch the cache; only ``repro all``, ``repro verify`` (and ``bench
    --cache``) use the on-disk result cache.
    """
    return ExperimentRunner(jobs=getattr(args, "jobs", None),
                            use_cache=False)


def iter_subcommands() -> List[str]:
    """Every registered CLI subcommand, sorted (the discoverability
    contract checked by ``tests/test_public_api.py``)."""
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return sorted(action.choices)
    return []


def cmd_list(_args) -> int:
    commands = [command for entry in paper.ARTIFACTS
                for command in entry.commands]
    print("stacks:     %s" % ", ".join(STACK_KINDS))
    for start in range(0, len(commands), 8):
        print("%-12s%s" % ("" if start else "artifacts:",
                           " ".join(commands[start:start + 8])))
    print("tools:      trace (record/export a run)  "
          "bench (regression suites)")
    print("            faults (degraded-mode scenarios)  "
          "all (every artifact, parallel + cached)")
    print("            verify (check the paper's claims: the scoreboard)")
    print("            dash (streaming-telemetry dashboards)  "
          "lint (simulator-discipline linter)")
    print("            explain (differential diagnosis of two runs)")
    print("            scale (server-farm matrix -> BENCH_scale.json over "
          "nclients x servers x connections x sharing)")
    print("            --san arms the runtime sanitizers; "
          "--telemetry attaches streaming rollups")
    print("commands:   %s" % " ".join(iter_subcommands()))
    return 0


# -- artifact commands ----------------------------------------------------------------


def _telemetry_summary(runner: ExperimentRunner) -> None:
    """Status lines for a telemetry-carrying run — stderr only, so every
    stdout/JSON artifact stays byte-identical to a plain run."""
    snapshot = runner.telemetry
    if snapshot is None:
        return
    print("telemetry: %d series, %d samples, %d cells"
          % (len(snapshot["series"]), snapshot["samples"],
             len(runner.telemetry_by_cell)), file=sys.stderr)
    if snapshot["findings"]:
        for code, series, message in snapshot["findings"]:
            print("telemetry %s %s: %s" % (code, series, message),
                  file=sys.stderr)
    else:
        print("telemetry watchers: clean (queue growth, pegged "
              "utilization, progress stall)", file=sys.stderr)


def cmd_artifact(args) -> int:
    """Run one artifact's cells at the flags given and render them."""
    entry = args.artifact
    options = {name: getattr(args, name) for name in entry.options}
    runner = _runner(args)
    entry.render(runner.run(entry.cells(**options)), **options)
    if options.get("san"):
        # stderr, so the table on stdout stays bit-identical to a
        # non-sanitized run (the sanitizer contract).
        print("sanitizers: clean (deadlock, leaks, event order, "
              "message/reply/task conservation)", file=sys.stderr)
    if options.get("telemetry"):
        _telemetry_summary(runner)
    return 0


# -- scale: the server-farm matrix ----------------------------------------------------


def cmd_scale(args) -> int:
    """Sweep the server farm (:mod:`repro.sim.farm`); write BENCH_scale.json.

    The grid is ``protocol x servers x connections x nclients``.  Every
    point is one pure ``farm_point`` runner cell, so the grid
    parallelizes over ``--jobs`` and caches under ``--cache`` without
    touching the outcome.  stdout rows and the written schema-2 document
    carry only machine-independent simulated figures, so two documents
    diff exactly across hosts (``--compare``).
    """
    from .obs.bench import SCALE_SCHEMA_VERSION

    if args.compare:
        from .obs.bench import compare_scale_documents, load_bench
        try:
            baseline = load_bench(args.compare[0])
            current = load_bench(args.compare[1])
        except (OSError, ValueError) as exc:
            print("scale: cannot read document: %s" % exc, file=sys.stderr)
            return 2
        problems = compare_scale_documents(baseline, current)
        for problem in problems:
            print("scale: %s" % problem)
        print("scale: %s"
              % ("documents diverged (%d problems)" % len(problems)
                 if problems else "documents identical"))
        return 1 if problems else 0
    for flag, values in (("--nclients", args.nclients),
                         ("--servers", args.servers),
                         ("--connections", args.connections),
                         ("--requests", [args.requests])):
        for value in values:
            if value < 1:
                print("scale: %s must be >= 1 (got %d)" % (flag, value),
                      file=sys.stderr)
                return 2
    if not 0.0 <= args.sharing <= 1.0:
        print("scale: --sharing must be in [0, 1] (got %r)"
              % (args.sharing,), file=sys.stderr)
        return 2
    runner = ExperimentRunner(jobs=args.jobs, use_cache=args.cache)
    cells = []
    for protocol in args.protocol:
        for nservers in args.servers:
            for connections in args.connections:
                for nclients in args.nclients:
                    # Sharing is an NFS-only axis: iSCSI volumes are
                    # single-client by design (Section 2.3).
                    sharing = args.sharing if protocol == "nfs" else 0.0
                    cells.append(make_cell(
                        "farm_point", protocol=protocol, nclients=nclients,
                        nservers=nservers, connections=connections,
                        sharing=sharing, requests=args.requests))
    results = runner.run(cells)
    points = []
    for cell in cells:
        record = results[cell.id]
        print("farm %s: clients=%d servers=%d conn=%d sharing=%r "
              "completed=%d makespan=%r messages=%d throughput=%r"
              % (record["protocol"], record["clients"], record["servers"],
                 record["connections"], record["sharing"],
                 record["completed"], record["makespan"],
                 record["messages"], record["throughput"]))
        point = dict(record)
        point["id"] = "%s/s%d/x%d/n%d" % (
            record["protocol"], record["servers"], record["connections"],
            record["clients"])
        points.append(point)
    document = {
        "schema": SCALE_SCHEMA_VERSION,
        "kind": "farm",
        "config": {
            "protocols": list(args.protocol),
            "nclients": list(args.nclients),
            "servers": list(args.servers),
            "connections": list(args.connections),
            "sharing": args.sharing,
            "requests_per_client": args.requests,
        },
        "points": points,
        "series": _farm_series(points),
        "note": "every field is deterministic simulated outcome; "
                "documents diff exactly across hosts via "
                "`repro scale --compare`",
    }
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("scale: wrote %s (%d farm points)" % (args.out, len(points)),
          file=sys.stderr)
    return 0


def _farm_series(points) -> dict:
    """Scaling laws per (protocol, servers, connections) series.

    ``efficiency`` is each point's per-client throughput relative to the
    smallest farm in its series; ``saturation_clients`` is the first
    farm size past the knee (efficiency < 0.5, i.e. adding clients has
    stopped adding proportional throughput); ``message_exponent`` is the
    least-squares slope of ln(messages) over ln(clients) — 1.0 means
    per-client message cost is flat, above it the protocol pays a
    growing coordination tax.
    """
    import math

    groups: dict = {}
    for point in points:
        key = "%s/s%d/x%d" % (point["protocol"], point["servers"],
                              point["connections"])
        groups.setdefault(key, []).append(point)
    series = {}
    for key, members in sorted(groups.items()):
        members = sorted(members, key=lambda point: point["clients"])
        base = members[0]
        per_client_base = base["throughput"] / base["clients"]
        efficiency = []
        saturation = None
        for point in members:
            relative = round((point["throughput"] / point["clients"])
                             / per_client_base, 6)
            efficiency.append([point["clients"], relative])
            if saturation is None and relative < 0.5:
                saturation = point["clients"]
        exponent = None
        if len(members) > 1:
            log_clients = [math.log(point["clients"]) for point in members]
            log_messages = [math.log(point["messages"]) for point in members]
            mean_x = sum(log_clients) / len(log_clients)
            mean_y = sum(log_messages) / len(log_messages)
            denominator = sum((x - mean_x) ** 2 for x in log_clients)
            if denominator:
                exponent = round(
                    sum((x - mean_x) * (y - mean_y)
                        for x, y in zip(log_clients, log_messages))
                    / denominator, 6)
        series[key] = {
            "efficiency": efficiency,
            "saturation_clients": saturation,
            "message_exponent": exponent,
        }
    return series


# -- all / verify: the whole paper in one run ----------------------------------------


def cmd_all(args) -> int:
    # The runner's progress lines keep long --jobs runs from looking
    # hung; they go to stderr, so the artifact output on stdout is
    # unchanged.
    runner = ExperimentRunner(jobs=args.jobs, use_cache=not args.no_cache,
                              heartbeat=True)
    sections = [entry for entry in paper.ARTIFACTS if entry.render]
    results = runner.run(paper.unique_cells(
        cell for entry in sections for cell in entry.default_cells()))
    for entry in sections:
        print("\n== %s ==" % entry.section)
        entry.render(results, **entry.options)
    _cells_summary(runner, args.jobs)
    return 0


def cmd_verify(args) -> int:
    """Check every claim of the registry on the cached runner; exit 1 when
    a claim that is not a listed deviation fails."""
    runner = ExperimentRunner(jobs=args.jobs, heartbeat=True)
    failed = paper.print_scoreboard(runner.run(paper.verify_cells()))
    _cells_summary(runner, args.jobs)
    return 1 if failed else 0


def _cells_summary(runner: ExperimentRunner, jobs: Optional[int]) -> None:
    print("\n%d cells (%d cached, %d computed), jobs=%s"
          % (runner.cache_hits + runner.cache_misses, runner.cache_hits,
             runner.cache_misses, jobs or 1))


# -- trace: the simulated-Ethereal front end ------------------------------------------
# The workload drivers are shared with `repro bench` and live in
# repro.obs.bench (imported above as TRACE_WORKLOADS).


def _run_traced(kind: str, workload: str, san: bool = False):
    # Telemetry rides along as the trace's vmstat: its windows become
    # the Chrome file's counter tracks.
    stack = make_stack(kind, trace=True, san=san, telemetry=True)
    stack.run(TRACE_WORKLOADS[workload](stack.client))
    stack.quiesce()
    stack.check()
    return stack


def cmd_trace(args) -> int:
    from .obs import (format_op_summary, render_span_tree,
                      render_timeline_diff, write_chrome_trace,
                      write_packet_trace)

    stack = _run_traced(args.stack, args.workload, san=args.san)
    tracer = stack.tracer
    if args.diff:
        other = _run_traced(args.diff, args.workload, san=args.san)
        print(render_timeline_diff(tracer, args.stack,
                                   other.tracer, args.diff,
                                   limit=args.limit))
        print()
    if args.out:
        write_chrome_trace(tracer, args.out, stack.telemetry)
        print("chrome trace: %s (open in chrome://tracing or Perfetto)"
              % args.out)
    if args.jsonl:
        write_packet_trace(tracer, args.jsonl)
        print("packet trace: %s" % args.jsonl)
    if args.tree:
        print(render_span_tree(tracer))
        print()
    print("%s on %s: %d spans, %d messages, %.2f simulated ms" % (
        args.workload, args.stack, len(tracer.spans), len(tracer.messages),
        stack.now * 1000))
    print()
    print(format_op_summary(tracer))
    return 0


# -- faults: degraded-mode scenario tables --------------------------------------------


def _plan_param(plan: str) -> Any:
    """Resolve a CLI plan reference into a JSON-pure cell parameter.

    Preset names (and "none") pass through as strings — readable cell
    ids, stable cache keys.  A file path is loaded here so the cell
    itself stays a pure function of its JSON params.
    """
    from .faults import PRESETS, resolve_plan

    if plan == "none" or plan in PRESETS:
        return plan
    return resolve_plan(plan).to_spec()


def _fault_digest(record: Dict[str, Any]) -> str:
    """Compact message-fault summary for one scenario row."""
    faults = record.get("faults")
    if not faults:
        return "-"
    parts = ["%s=%d" % (name.split(".", 1)[1], count)
             for name, count in sorted(faults.get("counts", {}).items())
             if name.startswith("msg.")]
    return " ".join(parts) if parts else "-"


def _recovery_digest(record: Dict[str, Any]) -> str:
    """Compact recovery-machinery summary for one scenario row."""
    recovery = record.get("recovery", {})
    labels = (("server_restarts", "restart"), ("relogins", "relogin"),
              ("requeued_commands", "requeue"), ("degraded_reads", "deg-rd"),
              ("degraded_writes", "deg-wr"), ("rebuild_writes", "rebuild"))
    parts = ["%s=%d" % (label, recovery[key])
             for key, label in labels if recovery.get(key)]
    return " ".join(parts) if parts else "-"


def cmd_faults(args) -> int:
    stacks = tuple(args.stack)
    plans = ["none"] + [plan for plan in args.plan if plan != "none"]

    def scenario_cell(kind: str, plan: str) -> Cell:
        params: Dict[str, Any] = dict(
            kind=kind, workload=args.workload,
            plan=_plan_param(plan), seed=args.seed)
        if args.san:
            params["san"] = True
        if args.telemetry:
            params["telemetry"] = True
        return make_cell("faults_scenario", **params)

    labeled = [
        (kind, plan, scenario_cell(kind, plan))
        for kind in stacks
        for plan in plans
    ]
    runner = _runner(args)
    results = runner.run([cell for _kind, _plan, cell in labeled])
    rows = []
    baseline: Dict[str, float] = {}
    for kind, plan, cell in labeled:
        record = results[cell.id]
        # Total simulated time (workload + quiesce): fault windows often
        # overlap the flush traffic, not just the foreground phase.
        elapsed = record["total_time_s"]
        if plan == "none":
            baseline[kind] = elapsed
        base = baseline.get(kind, 0.0)
        rows.append([
            kind, plan, "%.3fs" % elapsed,
            "%.2fx" % (elapsed / base) if base else "-",
            record["messages"], record["retransmissions"],
            _fault_digest(record), _recovery_digest(record),
        ])
    print("%s under fault plans (seed %d)" % (args.workload, args.seed))
    print_table(
        ["stack", "plan", "time", "vs none", "messages", "retrans",
         "faults", "recovery"],
        rows)
    if args.san:
        # Report mode: a faulted run legitimately abandons exchanges, so
        # findings are informational here (stderr keeps the table clean).
        for kind, plan, cell in labeled:
            findings = results[cell.id].get("sanitizer") or []
            print("san %s/%s: %s" % (
                kind, plan,
                "clean" if not findings else "; ".join(
                    "[%s] %s" % (f["code"], f["message"])
                    for f in findings)), file=sys.stderr)
    if args.telemetry:
        _telemetry_summary(runner)
    return 0


# -- bench: the regression harness ----------------------------------------------------


def cmd_bench(args) -> int:
    from .obs import bench

    if args.compare:
        baseline = bench.load_bench(args.compare[0])
        current = bench.load_bench(args.compare[1])
        regressions, notes = bench.compare(
            baseline, current, tolerance=args.tolerance)
        if args.format == "json":
            # Machine-readable for CI annotations; same exit semantics.
            sys.stdout.write(bench.format_compare_json(regressions, notes))
        else:
            print(bench.format_compare(regressions, notes))
            _print_compare_explain(baseline, current, regressions)
        return 1 if regressions else 0
    runner = ExperimentRunner(jobs=args.jobs, use_cache=args.cache)
    result = bench.run_suite(args.suite, runner=runner, san=args.san,
                             telemetry=args.telemetry)
    rows = []
    for case in sorted(result["cases"]):
        record = result["cases"][case]
        rows.append([case, "%.3fs" % record["completion_time_s"],
                     record["messages"],
                     "%.1fMB" % (record["bytes"] / 1e6)])
    print("suite %r (schema %d)" % (args.suite, result["schema"]))
    print_table(["case", "time", "messages", "bytes"], rows)
    out = args.out or ("BENCH_%s.json" % args.suite)
    bench.write_bench(result, out)
    print("\nwrote %s" % out)
    if args.telemetry:
        _telemetry_summary(runner)
    return 0


def _print_compare_explain(baseline: Dict[str, Any], current: Dict[str, Any],
                           regressions: List[Dict[str, Any]]) -> None:
    """Append one differential-diagnosis report per regressed case.

    Only cases present in both documents can be diffed (schema or
    presence regressions have nothing to attribute), and each case is
    explained once even if several metrics regressed on it.
    """
    from .obs.explain import explain_runs, format_explain, side_from_bench

    old_cases = baseline.get("cases", {})
    new_cases = current.get("cases", {})
    seen = set()
    for entry in regressions:
        case = entry["case"]
        if case in seen or case not in old_cases or case not in new_cases:
            continue
        seen.add(case)
        report = explain_runs(
            side_from_bench(old_cases[case], label="baseline:%s" % case),
            side_from_bench(new_cases[case], label="current:%s" % case))
        print()
        print(format_explain(report), end="")


# -- explain: the differential-diagnosis front end ------------------------------------


def cmd_explain(args) -> int:
    from .obs import explain as ex

    if bool(args.bench_a) != bool(args.bench_b):
        print("explain: --bench-a and --bench-b must be given together",
              file=sys.stderr)
        return 2
    if args.bench_a:
        # Offline mode: diff one case out of two recorded bench documents.
        import os

        from .obs import bench

        sides = []
        for path, stack in ((args.bench_a, args.stack_a),
                            (args.bench_b, args.stack_b)):
            doc = bench.load_bench(path)
            case = "%s/%s" % (args.workload, stack)
            record = doc.get("cases", {}).get(case)
            if record is None:
                print("explain: case %r not in %s (cases: %s)"
                      % (case, path,
                         ", ".join(sorted(doc.get("cases", {}))) or "none"),
                      file=sys.stderr)
                return 2
            sides.append(ex.side_from_bench(
                record, label="%s:%s" % (os.path.basename(path), case)))
        report = ex.explain_runs(sides[0], sides[1], top=args.top)
    else:
        # Live mode: one runner cell runs both sides and diffs them.
        cell = make_cell("explain_pair", workload=args.workload,
                     stack_a=args.stack_a, stack_b=args.stack_b,
                     telemetry=bool(args.telemetry), top=args.top)
        report = _runner(args).run([cell])[cell.id]
    if args.format == "json":
        text = ex.format_explain_json(report)
    elif args.format == "html":
        text = ex.render_explain_html(report)
    else:
        text = ex.format_explain(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print("wrote %s" % args.out)
    else:
        sys.stdout.write(text)
    return 0


# -- dash: streaming-telemetry dashboards ---------------------------------------------


def cmd_dash(args) -> int:
    from .obs.dashboard import render_dashboard, write_html

    cells = [make_cell("faults_scenario", kind=kind, workload=args.workload,
                       plan="none", telemetry=True)
             for kind in args.stack]
    runner = _runner(args)
    runner.run(cells)
    sections: List[Tuple[str, Dict[str, Any]]] = []
    for cell in cells:
        title = "%s on %s" % (args.workload, cell.params["kind"])
        snapshot = runner.telemetry_by_cell[cell.id]
        sections.append((title, snapshot))
        print(render_dashboard(snapshot, title=title, width=args.width))
    if len(cells) > 1:
        # The runner's deterministic cross-cell aggregate: what a
        # fan-out over many clients/cells would report as one fleet.
        title = "%s merged across %d stacks" % (args.workload, len(cells))
        sections.append((title, runner.telemetry))
        print(render_dashboard(runner.telemetry, title=title,
                               width=args.width))
    if args.html:
        write_html(args.html, sections,
                   title="repro dash: %s" % args.workload)
        print("html dashboard: %s" % args.html)
    return 0


# -- lint: the simulator-discipline linter --------------------------------------------


def cmd_lint(args) -> int:
    from .check import simlint

    paths = args.paths
    if not paths:
        # Default: lint the installed package's own source tree.
        import os

        paths = [os.path.dirname(os.path.abspath(__file__))]

    if args.debt:
        suppressions = simlint.collect_suppressions(paths)
        print(simlint.format_debt(suppressions))
        # A suppression without a written reason, or one naming no rule
        # (so suppressing nothing), is debt that fails CI.
        return 1 if any(not s.reason or s.names_no_rule
                        for s in suppressions) else 0

    violations = simlint.lint_paths(paths)
    if args.format == "json":
        print(simlint.format_json(violations))
    else:
        print(simlint.format_text(violations))
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts from the FAST'04 NFS-vs-iSCSI paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by every artifact subcommand: process-pool fan-out.
    jobs_parent = argparse.ArgumentParser(add_help=False)
    jobs_parent.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="run experiment cells on N worker processes "
             "(default: serial in-process; output is identical)")

    # Shared by every workload-running subcommand: runtime sanitizers.
    san_parent = argparse.ArgumentParser(add_help=False)
    san_parent.add_argument(
        "--san", action="store_true",
        help="run under the repro.check.simsan runtime sanitizers "
             "(deadlock/leak/order/conservation checks; observe-only, "
             "output stays byte-identical)")

    # Shared by quick/bench/faults: the streaming telemetry layer.
    telem_parent = argparse.ArgumentParser(add_help=False)
    telem_parent.add_argument(
        "--telemetry", action="store_true",
        help="attach the repro.obs.telemetry streaming collector "
             "(bounded-memory rollups + invariant watchers); summary on "
             "stderr, stdout/JSON output stays byte-identical)")

    sub.add_parser("list").set_defaults(func=cmd_list)

    al = sub.add_parser(
        "all", parents=[jobs_parent],
        help="regenerate every table and figure (parallel, cached)",
    )
    al.add_argument("--no-cache", action="store_true",
                    help="recompute every cell, ignoring the result cache")
    al.set_defaults(func=cmd_all)
    sub.add_parser(
        "verify", parents=[jobs_parent],
        help="check every paper claim on the cached cells, print the "
             "scoreboard; exits 1 if a claim that is not a listed "
             "deviation fails",
    ).set_defaults(func=cmd_verify)

    # One subcommand per artifact command, one flag per registry option.
    shared = {"san": san_parent, "telemetry": telem_parent}
    for entry in paper.ARTIFACTS:
        for command in entry.commands:
            ap = sub.add_parser(command, parents=[jobs_parent] + [
                shared[name] for name in entry.options if name in shared])
            for name, default in entry.options.items():
                if name in shared:
                    continue
                if isinstance(default, tuple):
                    ap.add_argument("--" + name, type=int, nargs="+",
                                    default=default)
                else:
                    ap.add_argument("--" + name, type=type(default),
                                    default=default)
            ap.set_defaults(func=cmd_artifact, artifact=entry)

    sc = sub.add_parser(
        "scale", parents=[jobs_parent],
        help="sweep a protocol-aware server farm over nclients x servers "
             "x connections x sharing; write BENCH_scale.json",
        description="Sweeps the protocol-aware farm (repro.sim.farm) over "
                    "four axes: --nclients (farm size, to 1k+ clients), "
                    "--servers (pNFS-style striped exports; server 0 is "
                    "the metadata server), --connections (MC/S-style "
                    "concurrent channels per client), and --sharing "
                    "(fraction of NFS requests hitting a shared file "
                    "pool; ignored by iscsi, whose volumes are "
                    "single-client). Output is pure simulated outcome, "
                    "byte-comparable across hosts; --compare OLD NEW "
                    "diffs two farm documents exactly.")
    sc.add_argument("--requests", type=int, default=20,
                    help="requests per client (default 20)")
    sc.add_argument("--out", default="BENCH_scale.json",
                    help="result file (default BENCH_scale.json)")
    sc.add_argument("--protocol", nargs="+", choices=("nfs", "iscsi"),
                    default=["nfs", "iscsi"], metavar="PROTO",
                    help="farm protocols to sweep (default: nfs iscsi)")
    sc.add_argument("--nclients", type=int, nargs="+",
                    default=[64, 256, 1024], metavar="N",
                    help="farm sizes to sweep (default: 64 256 1024)")
    sc.add_argument("--servers", type=int, nargs="+", default=[1, 4],
                    metavar="M",
                    help="server counts; NFS stripes one namespace over "
                         "all M exports pNFS-style (default: 1 4)")
    sc.add_argument("--connections", type=int, nargs="+", default=[1, 4],
                    metavar="K",
                    help="concurrent channels per client, the MC/S axis "
                         "(default: 1 4)")
    sc.add_argument("--sharing", type=float, default=0.25,
                    help="fraction of NFS requests hitting the shared "
                         "file pool, in [0, 1] (default 0.25)")
    sc.add_argument("--cache", action="store_true",
                    help="reuse cached farm cells ($REPRO_CACHE_DIR)")
    sc.add_argument("--compare", nargs=2, metavar=("BASELINE", "CURRENT"),
                    help="exact-diff two farm scale documents and exit "
                         "(1 if they diverge)")
    sc.set_defaults(func=cmd_scale)

    fl = sub.add_parser(
        "faults", parents=[jobs_parent, san_parent, telem_parent],
        help="run a workload under fault plans and tabulate the "
             "degraded-mode cost (completion time, messages, recovery)",
    )
    fl.add_argument("workload", choices=sorted(TRACE_WORKLOADS))
    fl.add_argument("--stack", nargs="+", choices=STACK_KINDS,
                    default=["nfsv3", "iscsi"], metavar="KIND",
                    help="stack kinds to compare (default: nfsv3 iscsi)")
    fl.add_argument("--plan", nargs="+", default=["loss2"], metavar="PLAN",
                    help="fault plans: a preset name (see repro.faults."
                         "PRESETS, e.g. loss2 loss10 dup5 reorder10 flap "
                         "degrade slow-disk disk-fail crash) or a JSON "
                         "plan file; an unfaulted baseline always runs")
    fl.add_argument("--seed", type=int, default=0,
                    help="RNG seed for probabilistic faults (default 0)")
    fl.set_defaults(func=cmd_faults)

    tr = sub.add_parser(
        "trace", parents=[san_parent],
        help="run a workload with tracing on and export/inspect the trace",
    )
    tr.add_argument("workload", choices=sorted(TRACE_WORKLOADS))
    tr.add_argument("--stack", choices=STACK_KINDS, default="nfsv3")
    tr.add_argument("--out", metavar="FILE",
                    help="write a Chrome trace_event JSON file")
    tr.add_argument("--jsonl", metavar="FILE",
                    help="write the Ethereal-style packet trace (JSON lines)")
    tr.add_argument("--diff", metavar="KIND", choices=STACK_KINDS,
                    help="also run KIND and print a side-by-side "
                         "protocol timeline")
    tr.add_argument("--tree", action="store_true",
                    help="print the causal span tree")
    tr.add_argument("--limit", type=int, default=60,
                    help="max rows in --diff output (0 = all)")
    tr.set_defaults(func=cmd_trace)

    be = sub.add_parser(
        "bench", parents=[jobs_parent, san_parent, telem_parent],
        help="run a benchmark suite to BENCH_<suite>.json, or compare "
             "two result files for regressions",
    )
    be.add_argument("--suite", choices=sorted(BENCH_SUITES),
                    default="quick")
    be.add_argument("--out", metavar="FILE",
                    help="output path (default BENCH_<suite>.json)")
    be.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two BENCH_*.json files instead of "
                         "running; exits 1 on regression")
    be.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional completion-time growth "
                         "(default 0.15; message counts must be exact)")
    be.add_argument("--format", choices=["text", "json"], default="text",
                    help="--compare report format (default text; json is "
                         "the machine-readable form CI annotates from)")
    be.add_argument("--cache", action="store_true",
                    help="serve unchanged cases from the result cache "
                         "(off by default: bench is the regression gate)")
    be.set_defaults(func=cmd_bench)

    da = sub.add_parser(
        "dash", parents=[jobs_parent],
        help="run a workload with streaming telemetry and render per-tier "
             "utilization/queue-depth timeline dashboards (ASCII + "
             "optional self-contained HTML export)",
    )
    da.add_argument("workload", choices=sorted(TRACE_WORKLOADS))
    da.add_argument("--stack", nargs="+", choices=STACK_KINDS,
                    default=["nfsv3", "iscsi"], metavar="KIND",
                    help="stack kinds to dash (default: nfsv3 iscsi); "
                         "more than one adds a merged fleet section")
    da.add_argument("--html", metavar="FILE",
                    help="also write a self-contained HTML dashboard")
    da.add_argument("--width", type=int, default=48,
                    help="sparkline width in characters (default 48)")
    da.set_defaults(func=cmd_dash)

    exp = sub.add_parser(
        "explain", parents=[jobs_parent, telem_parent],
        help="differential diagnosis: run one workload on two stacks (or "
             "load one case from two BENCH_*.json files) and explain the "
             "completion-time delta — layer attribution, message drift, "
             "queueing deltas, ranked blame",
    )
    exp.add_argument("workload", choices=sorted(TRACE_WORKLOADS))
    exp.add_argument("--stack-a", choices=STACK_KINDS, default="nfsv3",
                     metavar="KIND",
                     help="side-A stack kind (default nfsv3)")
    exp.add_argument("--stack-b", choices=STACK_KINDS, default="iscsi",
                     metavar="KIND",
                     help="side-B stack kind (default iscsi)")
    exp.add_argument("--bench-a", metavar="FILE",
                     help="read side A from a recorded BENCH_*.json "
                          "instead of running (case <workload>/<stack-a>; "
                          "requires --bench-b)")
    exp.add_argument("--bench-b", metavar="FILE",
                     help="read side B from a recorded BENCH_*.json "
                          "(case <workload>/<stack-b>; requires --bench-a)")
    exp.add_argument("--top", type=int, default=8,
                     help="blame-list length (default 8)")
    exp.add_argument("--format", choices=["text", "json", "html"],
                     default="text",
                     help="report format (default text; json is stable and "
                          "byte-identical across reruns)")
    exp.add_argument("--out", metavar="FILE",
                     help="write the report to FILE instead of stdout")
    exp.set_defaults(func=cmd_explain)

    li = sub.add_parser(
        "lint",
        help="run simlint, the simulator-discipline linter, over source "
             "paths (default: the repro package itself); exits 1 on "
             "violations",
    )
    li.add_argument("paths", nargs="*", metavar="PATH",
                    help="files or directories to lint "
                         "(default: the installed repro package)")
    li.add_argument("--format", choices=["text", "json"], default="text",
                    help="report format (default text)")
    li.add_argument("--debt", action="store_true",
                    help="report every `# simlint: disable` suppression "
                         "with its reason; exits 1 if any lacks one or "
                         "names a code that is not a rule")
    li.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
