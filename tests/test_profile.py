"""Tests for repro.obs.profile — attribution, critical paths, queueing."""
# simlint: disable-file=O301 -- tests drive the tracer directly; the guard is the production contract under test

import pytest

from repro.core.comparison import make_stack
from repro.obs import (
    Profile,
    format_attribution,
    format_critical_path,
    format_resource_report,
    resource_report,
)
from repro.obs.tracer import Tracer
from repro.sim import Simulator


# ------------------------------------------------------------- synthetic trees

def _span(tracer, name, cat="span"):
    return tracer.begin_span(name, cat=cat)


def test_critical_path_tiles_nested_spans():
    sim = Simulator()
    tracer = Tracer(sim)

    def work():
        outer = tracer.begin_span("outer", cat="syscall")
        yield sim.timeout(1.0)                    # outer exclusive
        inner = tracer.begin_span("inner", cat="disk")
        yield sim.timeout(2.0)                    # inner
        tracer.end_span(inner)
        yield sim.timeout(0.5)                    # outer exclusive again
        tracer.end_span(outer)

    sim.run_process(work())
    profile = Profile(tracer)
    (root,) = profile.roots
    path = profile.critical_path(root)
    assert sum(seg.duration for seg in path) == pytest.approx(
        root.duration, abs=1e-12)
    by_span = {}
    for seg in path:
        by_span[seg.span.name] = by_span.get(seg.span.name, 0.0) + seg.duration
    assert by_span["outer"] == pytest.approx(1.5)
    assert by_span["inner"] == pytest.approx(2.0)
    # Segments are returned in time order and contiguous.
    for before, after in zip(path, path[1:]):
        assert before.end == pytest.approx(after.start)


def test_critical_path_charges_parallel_children_to_last_blocker():
    # Two children run concurrently; the overlap belongs to the one that
    # finishes last (it is the blocker), so the tiling never double-counts.
    sim = Simulator()
    tracer = Tracer(sim)

    def child(name, delay):
        span = tracer.begin_span(name, cat="disk")
        yield sim.timeout(delay)
        tracer.end_span(span)

    def parent():
        span = tracer.begin_span("op", cat="syscall")
        jobs = []
        for name, delay in (("fast", 1.0), ("slow", 3.0)):
            job = sim.spawn(child(name, delay))
            job.trace_parent = tracer.current_span_id()
            jobs.append(job)
        yield sim.all_of(jobs)
        tracer.end_span(span)

    sim.run_process(parent())
    profile = Profile(tracer)
    (root,) = profile.roots
    path = profile.critical_path(root)
    assert sum(seg.duration for seg in path) == pytest.approx(3.0, abs=1e-12)
    slow = sum(s.duration for s in path if s.span.name == "slow")
    fast = sum(s.duration for s in path if s.span.name == "fast")
    assert slow == pytest.approx(3.0)
    assert fast == 0.0  # never the blocker


def test_attribution_exclusive_conserves_root_time():
    sim = Simulator()
    tracer = Tracer(sim)

    def work():
        for _ in range(3):
            outer = tracer.begin_span("syscall:op", cat="syscall")
            inner = tracer.begin_span("rpc:X", cat="rpc")
            yield sim.timeout(0.25)
            tracer.end_span(inner)
            yield sim.timeout(0.75)
            tracer.end_span(outer)

    sim.run_process(work())
    profile = Profile(tracer)
    attribution = profile.attribution()
    assert sum(s.exclusive for s in attribution.values()) == pytest.approx(
        profile.accounted, abs=1e-9)
    assert attribution["rpc"].exclusive == pytest.approx(0.75)
    assert attribution["syscall"].exclusive == pytest.approx(2.25)
    assert attribution["syscall"].inclusive == pytest.approx(3.0)
    # Request-flow ordering: syscall before rpc.
    assert list(attribution) == ["syscall", "rpc"]


# ------------------------------------------------------ stack-level invariants

@pytest.fixture(scope="module", params=["nfsv3", "iscsi"])
def traced_stack(request):
    """A traced stack that ran a small mixed workload (module-cached)."""
    stack = make_stack(request.param, trace=True)
    client = stack.client

    def work():
        yield from client.mkdir("/d")
        fd = yield from client.creat("/d/f")
        for i in range(8):
            yield from client.pwrite(fd, 8192, i * 8192)
        yield from client.fsync(fd)
        for i in range(8):
            yield from client.pread(fd, 8192, i * 8192)
        yield from client.close(fd)
        yield from client.stat("/d/f")

    stack.run(work(), name="work")
    stack.quiesce()
    return stack


def test_critical_path_equals_span_duration_for_every_syscall(traced_stack):
    # Acceptance: the critical-path length for each top-level op equals
    # that op's span duration within 1e-9.
    profile = Profile(traced_stack.tracer)
    assert profile.roots
    for root in profile.roots:
        path = profile.critical_path(root)
        assert sum(seg.duration for seg in path) == pytest.approx(
            root.duration, abs=1e-9)


def test_exclusive_attribution_bounded_by_simulated_time(traced_stack):
    # Acceptance: per-layer exclusive times sum to <= total simulated
    # time (syscall roots are serial, so the tilings never overlap).
    profile = Profile(traced_stack.tracer)
    attribution = profile.attribution()
    total_exclusive = sum(s.exclusive for s in attribution.values())
    assert total_exclusive == pytest.approx(profile.accounted, abs=1e-9)
    assert total_exclusive <= traced_stack.now + 1e-9


def test_resource_stats_busy_matches_legacy_disk_busy_time(traced_stack):
    # Acceptance: the disk queue's busy-time integral matches the disk's
    # own sum of service times (Disk.busy_time) to 1e-9.
    for disk in traced_stack.raid.disks:
        stats = disk.queue.stats
        assert stats.busy_time == pytest.approx(disk.busy_time, abs=1e-9)
        if traced_stack.now > 0:
            expected = disk.busy_time / traced_stack.now
            assert stats.utilization() == pytest.approx(expected, abs=1e-9)


def test_resource_stats_littles_law_holds(traced_stack):
    # With the run quiesced every queue is empty, so the queue-depth
    # integral must equal the summed waits exactly (Little's law).
    for resource in traced_stack.resources():
        assert resource.stats.littles_law_residual() < 1e-9


def test_critical_path_summary_ranks_fsync_blockers(traced_stack):
    # fsync is the op that always blocks on real I/O on both stacks
    # (NFSv3 absorbs pwrite into the client cache at zero cost).
    profile = Profile(traced_stack.tracer)
    ranked = profile.critical_path_summary("syscall:fsync")
    assert ranked
    totals = [seconds for _name, seconds, _hops in ranked]
    assert totals == sorted(totals, reverse=True)
    roots = [r for r in profile.roots if r.name == "syscall:fsync"]
    assert sum(totals) == pytest.approx(
        sum(r.duration for r in roots), abs=1e-9)


def test_format_helpers_render_tables(traced_stack):
    profile = Profile(traced_stack.tracer)
    attribution_text = format_attribution(profile)
    assert "layer" in attribution_text and "excl %" in attribution_text
    assert "100.0%" in attribution_text
    path_text = format_critical_path(profile, "syscall:fsync")
    assert "critical path for syscall:fsync" in path_text
    headers, rows = resource_report(traced_stack.resources())
    assert len(rows) == len(traced_stack.resources())
    report_text = format_resource_report(traced_stack.resources())
    assert "client.cpu" in report_text and "server.cpu" in report_text


def test_profile_without_syscall_spans_falls_back_to_parentless():
    sim = Simulator()
    tracer = Tracer(sim)

    def work():
        span = tracer.begin_span("loose", cat="disk")
        yield sim.timeout(1.0)
        tracer.end_span(span)

    sim.run_process(work())
    profile = Profile(tracer)
    assert [root.name for root in profile.roots] == ["loose"]
    assert profile.accounted == pytest.approx(1.0)
