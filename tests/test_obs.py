"""Tests for repro.obs — the tracing & metrics layer (simulated Ethereal)."""
# simlint: disable-file=O301 -- tests drive the tracer directly; the guard is the production contract under test

import json

import pytest

from repro.cli import main
from repro.core.comparison import make_stack
from repro.core.params import TestbedParams
from repro.obs import (
    LatencyHistogram,
    Tracer,
    chrome_trace,
    format_op_summary,
    packet_trace_lines,
    render_span_tree,
    render_timeline_diff,
)
from repro.sim import Simulator


# ---------------------------------------------------------------- unit: tracer

def test_spans_nest_within_a_process():
    sim = Simulator()
    tracer = Tracer(sim)

    def work():
        outer = tracer.begin_span("outer")
        yield sim.timeout(1.0)
        inner = tracer.begin_span("inner")
        yield sim.timeout(2.0)
        tracer.end_span(inner)
        tracer.end_span(outer)
        return None

    sim.run_process(work())
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert by_name["inner"].duration == pytest.approx(2.0)
    assert by_name["outer"].duration == pytest.approx(3.0)


def test_trace_parent_carries_across_spawned_processes():
    sim = Simulator()
    tracer = Tracer(sim)

    def child():
        span = tracer.begin_span("child")
        yield sim.timeout(1.0)
        tracer.end_span(span)

    def parent():
        span = tracer.begin_span("parent")
        job = sim.spawn(child())
        job.trace_parent = tracer.current_span_id()
        yield job
        tracer.end_span(span)

    sim.run_process(parent())
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["child"].parent == by_name["parent"].id


def test_wrap_records_span_and_returns_value():
    sim = Simulator()
    tracer = Tracer(sim)

    def inner():
        yield sim.timeout(0.5)
        return "done"

    def outer():
        result = yield from tracer.wrap("wrapped", inner(), cat="test")
        return result

    assert sim.run_process(outer()) == "done"
    (span,) = tracer.find_spans("wrapped")
    assert span.cat == "test"
    assert span.duration == pytest.approx(0.5)


def test_end_span_feeds_latency_histogram():
    sim = Simulator()
    tracer = Tracer(sim)

    def work():
        for delay in (0.001, 0.002, 0.004):
            span = tracer.begin_span("op")
            yield sim.timeout(delay)
            tracer.end_span(span)

    sim.run_process(work())
    hist = tracer.histograms["op"]
    assert hist.count == 3
    assert hist.mean == pytest.approx((0.001 + 0.002 + 0.004) / 3)
    assert hist.percentile(0.50) >= 0.001


def test_latency_histogram_percentiles_are_monotone():
    hist = LatencyHistogram()
    for value in (0.0001, 0.001, 0.01, 0.1, 1.0):
        hist.record(value)
    p50 = hist.percentile(0.50)
    p95 = hist.percentile(0.95)
    p99 = hist.percentile(0.99)
    assert p50 <= p95 <= p99
    assert hist.count == 5


def test_latency_histogram_empty_reports_zero():
    hist = LatencyHistogram()
    assert hist.count == 0
    assert hist.mean == 0.0
    for fraction in (0.0, 0.5, 0.95, 1.0):
        assert hist.percentile(fraction) == 0.0


def test_latency_histogram_single_sample_is_exact_at_every_percentile():
    hist = LatencyHistogram()
    hist.record(0.000991536)  # deliberately between bucket edges
    for fraction in (0.01, 0.5, 0.95, 0.99, 1.0):
        assert hist.percentile(fraction) == 0.000991536
    assert hist.min == hist.max == 0.000991536


def test_latency_histogram_overflow_values_report_exact_max():
    hist = LatencyHistogram()
    beyond = LatencyHistogram.EDGES[-1] * 4.0  # above the top bucket
    hist.record(beyond)
    assert hist.overflow == 1
    assert hist.percentile(0.99) == beyond
    hist.record(0.001)
    assert hist.overflow == 1
    assert hist.percentile(0.99) == beyond
    assert hist.max == beyond and hist.min == 0.001


def test_latency_histogram_value_exactly_on_top_edge_is_not_overflow():
    hist = LatencyHistogram()
    hist.record(LatencyHistogram.EDGES[-1])
    assert hist.overflow == 0
    assert hist.percentile(0.5) == LatencyHistogram.EDGES[-1]


def test_latency_histogram_percentiles_clamped_into_observed_range():
    # Bucket upper edges can overshoot the true max and undershoot the
    # true min; the answer must stay inside [min, max] regardless.
    hist = LatencyHistogram()
    for value in (0.0015, 0.0017, 0.0019):  # all in the (1.024, 2.048] ms bucket
        hist.record(value)
    for fraction in (0.1, 0.5, 0.99):
        answer = hist.percentile(fraction)
        assert hist.min <= answer <= hist.max


def test_latency_histogram_fraction_zero_returns_min():
    hist = LatencyHistogram()
    hist.record(0.002)
    hist.record(0.010)
    assert hist.percentile(0.0) == 0.002


# ------------------------------------------------------- stack-level tracing

def _age(stack, seconds):
    yield stack.sim.timeout(seconds)


def _warm_read_stack(kind):
    """Prime a 1-block file, age past attr validity, then re-read it."""
    stack = make_stack(kind, trace=True)
    client = stack.client
    fd = stack.run(client.creat("/f"))
    stack.run(client.pwrite(fd, 4096, 0))
    stack.run(client.fsync(fd))
    stack.run(client.pread(fd, 4096, 0))
    stack.quiesce()
    stack.run(_age(stack, 4.0))
    first_msg = len(stack.tracer.messages)
    stack.run(client.pread(fd, 4096, 0))
    return stack, stack.tracer.messages[first_msg:]


def test_nfsv3_warm_read_is_one_rpc_pair():
    # Paper, Table 3 methodology: a warm 1-block read on NFS v3 costs one
    # GETATTR round trip (attr revalidation) and no READ — the data is
    # served from the client page cache.
    stack, messages = _warm_read_stack("nfsv3")
    assert len(messages) == 2
    assert [m.kind for m in messages] == ["request", "reply"]
    assert {m.op for m in messages} == {"GETATTR"}
    # The span tree agrees: the last pread has exactly one RPC child.
    pread = stack.tracer.find_spans("syscall:pread")[-1]
    rpcs = [span for span in stack.tracer.subtree(pread)
            if span.cat == "rpc" and span.track == "client"]
    assert [span.name for span in rpcs] == ["rpc:GETATTR"]


def test_iscsi_warm_read_is_network_silent():
    # Paper, Table 3: iSCSI satisfies a warm read entirely from the
    # client-side ext3 buffer cache — zero network messages.
    stack, messages = _warm_read_stack("iscsi")
    assert messages == []
    pread = stack.tracer.find_spans("syscall:pread")[-1]
    rpcs = [span for span in stack.tracer.subtree(pread)
            if span.cat == "rpc"]
    assert rpcs == []


def test_serve_span_parents_to_client_call_span():
    stack, _messages = _warm_read_stack("nfsv3")
    call = stack.tracer.find_spans("rpc:GETATTR")[-1]
    serves = [span for span in stack.tracer.spans
              if span.name == "serve:GETATTR" and span.parent == call.id]
    assert serves, "server-side serve span must parent to the client call"


def test_tracing_does_not_change_message_counts():
    def workload(client):
        yield from client.mkdir("/d")
        fd = yield from client.creat("/d/f")
        yield from client.write(fd, 16_384)
        yield from client.fsync(fd)
        yield from client.pread(fd, 4096, 0)
        yield from client.close(fd)
        yield from client.stat("/d/f")

    for kind in ("nfsv3", "iscsi"):
        deltas = []
        for trace in (False, True):
            stack = make_stack(kind, trace=trace)
            snap = stack.snapshot()
            stack.run(workload(stack.client))
            stack.quiesce()
            deltas.append(stack.delta(snap))
        untraced, traced = deltas
        assert traced.messages == untraced.messages
        assert traced.total_bytes == untraced.total_bytes
        assert traced.by_op == untraced.by_op


def test_traced_message_count_matches_transport_counters():
    stack, _messages = _warm_read_stack("nfsv3")
    # The tracer logs both directions; counters report request/reply pairs.
    assert len(stack.tracer.messages) == (
        stack.counters.requests + stack.counters.replies)


def test_untraced_stack_exposes_raw_client_and_null_tracer():
    stack = make_stack("nfsv3")
    assert stack.tracer is None
    assert stack.sim.tracer is None
    assert stack.client is stack.raw_client


# ---------------------------------------------------------------- exporters

def test_packet_trace_lines_are_valid_json():
    stack, _messages = _warm_read_stack("nfsv3")
    lines = packet_trace_lines(stack.tracer)
    assert lines
    for line in lines:
        record = json.loads(line)
        assert {"t", "dir", "op", "kind", "hdr", "pay"} <= set(record)
        assert record["dir"] in ("c2s", "s2c")


def test_chrome_trace_structure():
    stack, _messages = _warm_read_stack("nfsv3")
    data = chrome_trace(stack.tracer)
    events = data["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == len(stack.tracer.spans)
    for event in spans:
        assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
        assert event["dur"] >= 0
    assert {e["pid"] for e in events} <= {1, 2, 3}
    assert any(e["ph"] == "M" for e in events)


def test_write_chrome_trace_round_trips_through_json(tmp_path):
    from repro.obs import write_chrome_trace

    stack, _messages = _warm_read_stack("nfsv3")
    path = tmp_path / "trace.json"
    write_chrome_trace(stack.tracer, str(path))
    assert json.loads(path.read_text()) == chrome_trace(stack.tracer)


def test_write_packet_trace_round_trips_through_jsonl(tmp_path):
    from repro.obs import write_packet_trace

    stack, _messages = _warm_read_stack("nfsv3")
    path = tmp_path / "trace.jsonl"
    write_packet_trace(stack.tracer, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(stack.tracer.messages)
    parsed = [json.loads(line) for line in lines]
    for record, message in zip(parsed, stack.tracer.messages):
        assert record["op"] == message.op
        assert record["t"] == pytest.approx(message.t)
        assert record["hdr"] == message.header_bytes
        assert record["pay"] == message.payload_bytes


def test_chrome_trace_pids_and_tids_stable_across_identical_runs():
    # Exporter determinism: the same workload twice must yield identical
    # lane assignments (pid/tid), so exports are diffable artifacts.
    first, _m1 = _warm_read_stack("nfsv3")
    second, _m2 = _warm_read_stack("nfsv3")
    events_a = chrome_trace(first.tracer)["traceEvents"]
    events_b = chrome_trace(second.tracer)["traceEvents"]
    lanes_a = [(e["name"], e["pid"], e["tid"]) for e in events_a
               if e["ph"] == "X"]
    lanes_b = [(e["name"], e["pid"], e["tid"]) for e in events_b
               if e["ph"] == "X"]
    assert lanes_a == lanes_b

    # Beyond lanes, the full event streams agree too — except xids,
    # which come from a process-global counter and keep climbing
    # across stacks built in the same interpreter.
    def masked(events):
        out = []
        for event in events:
            event = dict(event)
            if "args" in event:
                event["args"] = {k: v for k, v in event["args"].items()
                                 if k != "xid"}
            out.append(event)
        return out

    assert masked(events_a) == masked(events_b)


def test_op_summary_lists_each_rpc_op_once():
    stack, _messages = _warm_read_stack("nfsv3")
    text = format_op_summary(stack.tracer)
    rows = [line.split()[0] for line in text.splitlines()[2:]]
    assert "GETATTR" in rows
    assert len(rows) == len(set(rows))


def test_render_span_tree_indents_children():
    stack, _messages = _warm_read_stack("nfsv3")
    pread = stack.tracer.find_spans("syscall:pread")[-1]
    text = render_span_tree(stack.tracer, roots=[pread])
    lines = text.splitlines()
    assert "syscall:pread" in lines[0]
    assert any("rpc:GETATTR" in line for line in lines[1:])


def test_render_timeline_diff_has_both_columns():
    nfs, _m1 = _warm_read_stack("nfsv3")
    iscsi, _m2 = _warm_read_stack("iscsi")
    text = render_timeline_diff(nfs.tracer, "nfsv3", iscsi.tracer, "iscsi")
    assert "nfsv3" in text.splitlines()[0]
    assert "iscsi" in text.splitlines()[0]
    assert any("GETATTR" in line for line in text.splitlines())
    assert any("SCSI_READ" in line for line in text.splitlines())


# ---------------------------------------------------------------- CLI

def test_cli_trace_writes_valid_chrome_trace(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["trace", "postmark", "--stack", "nfsv3",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    events = data["traceEvents"]
    assert [e for e in events if e["ph"] == "X"]
    assert [e for e in events if e["ph"] == "i"]
    assert "op " in capsys.readouterr().out
    # The counter tracks come from the telemetry that rode along: host
    # CPUs on the client (1) and server (2) tracks, the link on the wire
    # (3), and one queue track per RAID member.
    counters = {}
    for event in events:
        if event["ph"] == "C":
            counters.setdefault(event["name"], set()).add(event["pid"])
    queues = sorted(name for name in counters
                    if name.startswith("server.disk")
                    and name.endswith(".queue"))
    assert queues == ["server.disk%02d.queue" % index
                      for index in range(len(queues))]
    assert len(queues) == TestbedParams().raid.data_disks + 1
    expected = {"client.cpu.util": {1}, "server.cpu.util": {2},
                "net.link.MBps": {3}}
    expected.update((name, {2}) for name in queues)
    assert {name: counters[name] for name in expected} == expected
    assert {pid for pids in counters.values() for pid in pids} <= {1, 2, 3}


def test_cli_trace_jsonl_and_tree(tmp_path, capsys):
    jsonl = tmp_path / "t.jsonl"
    assert main(["trace", "smoke", "--stack", "iscsi",
                 "--jsonl", str(jsonl), "--tree"]) == 0
    for line in jsonl.read_text().splitlines():
        json.loads(line)
    assert "syscall:" in capsys.readouterr().out


def test_cli_trace_diff_mode(capsys):
    assert main(["trace", "smoke", "--stack", "nfsv3",
                 "--diff", "iscsi", "--limit", "10"]) == 0
    output = capsys.readouterr().out
    assert "nfsv3" in output
    assert "iscsi" in output
