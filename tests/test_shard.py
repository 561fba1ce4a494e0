"""Tests for the sharded event calendar (repro.sim.shard).

Covers the conservative-window driver's contracts: the lookahead
safety rules (zero-lookahead construction, below-lookahead posts, the
exactly-on-horizon boundary), the deterministic ``(when, src_shard,
src_seq)`` tie-break across every executor, partition invariance of
the storm microbenchmark, the cross-phase watermark barrier, and the
S407 causality sanitizer.
"""
# simlint: disable-file=D104 -- tests assert exact sim times

import pytest

from repro.sim import SimulationError, Simulator, Store
from repro.sim.shard import (
    EXECUTORS,
    Shard,
    ShardedSimulator,
    ShardMessage,
    default_parallel_executor,
)


# -- construction and safety rules ---------------------------------------------


def test_zero_lookahead_rejected_at_construction():
    """A zero-latency cross-shard link must raise, not deadlock."""
    with pytest.raises(ValueError, match="lookahead must be positive"):
        ShardedSimulator(2, 0.0)


def test_negative_lookahead_rejected():
    with pytest.raises(ValueError, match="lookahead must be positive"):
        ShardedSimulator(2, -0.5)


def test_nshards_below_one_rejected():
    with pytest.raises(ValueError, match="nshards"):
        ShardedSimulator(0, 1.0)


def test_unknown_executor_rejected():
    with pytest.raises(ValueError, match="unknown executor"):
        ShardedSimulator(2, 1.0, executor="gpu")


def test_default_parallel_executor_is_known():
    assert default_parallel_executor() in EXECUTORS


def test_cross_shard_post_below_lookahead_rejected():
    """delay < lookahead would break conservative safety: refuse loudly."""
    sharded = ShardedSimulator(2, 1.0)
    sharded.shard(1).bind("inbox", lambda _payload: None)
    with pytest.raises(SimulationError, match="below the lookahead"):
        sharded.shard(0).post(1, "inbox", "x", 0.25)


def test_colocated_post_may_use_any_delay():
    """dst == self is an ordinary calendar entry, not a shard crossing."""
    sharded = ShardedSimulator(2, 1.0)
    shard = sharded.shard(0)
    seen = []
    shard.bind("inbox", seen.append)
    shard.post(0, "inbox", "now-ish", 0.0)
    shard.sim.run()
    assert seen == ["now-ish"]
    assert shard.outbox == []


def test_post_to_out_of_range_shard_rejected():
    sharded = ShardedSimulator(2, 1.0)
    with pytest.raises(ValueError, match="out of range"):
        sharded.shard(0).post(5, "inbox", "x", 2.0)


def test_duplicate_port_bind_rejected():
    sharded = ShardedSimulator(1, 1.0)
    sharded.shard(0).bind("inbox", lambda _p: None)
    with pytest.raises(ValueError, match="already bound"):
        sharded.shard(0).bind("inbox", lambda _p: None)


# -- the window boundary -------------------------------------------------------


def test_run_window_is_strict_below_horizon():
    """An event exactly on the horizon belongs to the next window."""
    sim = Simulator()
    fired = []
    sim.schedule_at(0.5, fired.append, "below")
    sim.schedule_at(1.0, fired.append, "on-horizon")
    assert sim.run_window(1.0) == 1
    assert fired == ["below"]
    # The clock stays at the last processed event, never the horizon.
    assert sim.now == 0.5
    assert sim.peek() == 1.0
    assert sim.run_window(1.5) == 1
    assert fired == ["below", "on-horizon"]


def test_message_exactly_on_horizon_delivered_next_window():
    """delay == lookahead arrives exactly on the first horizon; the
    conservative loop must park it for the next window, not lose it."""
    sharded = ShardedSimulator(2, 1.0, san=True)
    arrivals = []
    sharded.shard(1).bind("inbox", lambda p: arrivals.append(
        (sharded.shard(1).sim.now, p)))

    def sender():
        sharded.shard(0).post(1, "inbox", "edge", 1.0)
        yield sharded.shard(0).sim.timeout(0.0)

    def receiver():
        yield sharded.shard(1).sim.timeout(2.0)

    sharded.shard(0).add_phase("go", sender)
    sharded.shard(1).add_phase("go", receiver)
    sharded.run_phase("go")
    assert arrivals == [(1.0, "edge")]
    assert sharded.findings == []


# -- the deterministic tie-break (satellite: locked-in ordering) ----------------


def _equal_when_arrival_order(executor, jobs):
    """Three shards each post two messages all arriving at t=5.0; the
    destination logs delivery order.  The contract: injection sorts by
    ``(when, src_shard, src_seq)`` no matter which executor ran the
    windows or how many workers it used."""
    sharded = ShardedSimulator(4, 1.0, executor=executor, jobs=jobs)
    dest = sharded.shard(0)
    arrivals = []
    dest.bind("inbox", arrivals.append)
    dest.set_collector(lambda: list(arrivals))

    def make_sender(shard):
        def sender():
            shard.post(0, "inbox", (shard.id, "a"), 5.0)
            shard.post(0, "inbox", (shard.id, "b"), 5.0)
            yield shard.sim.timeout(0.0)
        return sender

    def receiver():
        yield dest.sim.timeout(10.0)

    for index in (1, 2, 3):
        shard = sharded.shard(index)
        shard.add_phase("go", make_sender(shard))
    dest.add_phase("go", receiver)
    sharded.run_phase("go")
    collected = sharded.collect()
    sharded.close()
    return collected[0]


EXPECTED_TIEBREAK = [(1, "a"), (1, "b"), (2, "a"), (2, "b"),
                     (3, "a"), (3, "b")]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("jobs", [None, 1, 2])
def test_equal_when_tiebreak_stable_across_executors(executor, jobs):
    order = _equal_when_arrival_order(executor, jobs)
    assert order == EXPECTED_TIEBREAK


# -- partition invariance (the byte-identity contract) --------------------------


def _storm(**kwargs):
    from repro.sim.perf import run_shard_storm

    result = run_shard_storm(groups=4, clients_per_group=4, requests=5,
                             **kwargs)
    return (result["completed"], result["records"], result["makespan"])


def test_storm_partition_invariant_across_shards_and_executors():
    """completed/records/makespan are identical for every partitioning;
    the flat (nshards=0) kernel is the reference."""
    reference = _storm(nshards=0)
    assert reference[0] == 4 * 4 * 5
    for nshards in (1, 2, 4):
        assert _storm(nshards=nshards, executor="sequential") == reference
    # One fork point (the expensive executor) and one sanitized point.
    assert _storm(nshards=2, executor="fork") == reference
    assert _storm(nshards=2, executor="sequential", san=True) == reference


def test_storm_with_more_shards_than_groups():
    """Degenerate partitioning: empty shards idle through the run but
    the barrier still aligns them and the metrics are unchanged."""
    reference = _storm(nshards=0)
    assert _storm(nshards=8, executor="sequential") == reference


def test_storm_report_fields():
    from repro.sim.perf import run_shard_storm

    result = run_shard_storm(groups=4, clients_per_group=4, requests=5,
                             nshards=2, executor="sequential")
    report = result["report"]
    assert report["shards"] == 2
    assert report["executor"] == "sequential"
    assert report["rounds"] > 0
    assert sum(report["records_by_shard"]) == report["total_records"]
    assert 0.0 < report["cross_fraction"] < 1.0
    assert 1.0 < report["ideal_speedup"] <= 2.0


def test_flat_reference_has_no_report():
    from repro.sim.perf import run_shard_storm

    assert run_shard_storm(groups=2, clients_per_group=2, requests=2,
                           nshards=0)["report"] is None


# -- phases and the watermark barrier ------------------------------------------


def test_phase_barrier_aligns_idle_shard_clocks():
    """A shard that idles through a phase still ends it at the
    watermark, so the next phase may post to it without time-travel."""
    sharded = ShardedSimulator(2, 0.5, executor="sequential")
    s0, s1 = sharded.shards
    log = []
    s0.bind("inbox", log.append)

    def busy():
        yield s0.sim.timeout(3.0)

    s0.add_phase("one", busy)
    sharded.run_phase("one")
    assert s0.sim.now == s1.sim.now
    barrier = s0.sim.now
    assert barrier >= 3.0

    def sender():
        s1.post(0, "inbox", "hello", 0.5)
        yield s1.sim.timeout(1.0)

    def receiver():
        yield s0.sim.timeout(1.0)

    s0.add_phase("two", receiver)
    s1.add_phase("two", sender)
    sharded.run_phase("two")
    assert log == ["hello"]
    assert s0.sim.now == s1.sim.now
    assert s0.sim.now >= barrier


def test_phase_deadlock_detected():
    """Every calendar empty + unfinished phase process = deadlock, and
    the driver says so instead of spinning."""
    sharded = ShardedSimulator(2, 1.0, executor="sequential")
    shard = sharded.shard(0)
    inbox = Store(shard.sim, name="never-fed")

    def starved():
        yield from inbox.get()

    shard.add_phase("go", starved)
    with pytest.raises(SimulationError, match="deadlocked"):
        sharded.run_phase("go")


def test_phase_process_error_propagates():
    sharded = ShardedSimulator(1, 1.0, executor="sequential")
    shard = sharded.shard(0)

    def exploder():
        yield shard.sim.timeout(0.5)
        raise RuntimeError("boom")

    shard.add_phase("go", exploder)
    with pytest.raises(RuntimeError, match="boom"):
        sharded.run_phase("go")


def test_context_manager_closes_executor():
    with ShardedSimulator(2, 1.0, executor="sequential") as sharded:
        shard = sharded.shard(0)

        def quick():
            yield shard.sim.timeout(0.1)

        shard.add_phase("go", quick)
        sharded.run_phase("go")
    assert sharded._executor is None


# -- the S407 causality sanitizer ----------------------------------------------


def test_s407_flags_below_lookahead_and_window_floor():
    sharded = ShardedSimulator(2, 1.0, san=True)
    message = ShardMessage(when=0.5, sent=0.0, src_shard=0, src_seq=1,
                           dst_shard=1, port="inbox", payload=None)
    sharded._check_causality(message, t_min=0.6)
    assert [finding.code for finding in sharded.findings] == ["S407", "S407"]
    texts = [finding.message for finding in sharded.findings]
    assert "below the lookahead" in texts[0]
    assert "conservative safety violated" in texts[1]


def test_s407_clean_on_legal_message():
    sharded = ShardedSimulator(2, 1.0, san=True)
    message = ShardMessage(when=2.0, sent=1.0, src_shard=0, src_seq=1,
                           dst_shard=1, port="inbox", payload=None)
    sharded._check_causality(message, t_min=1.0)
    assert sharded.findings == []


def test_sanitized_storm_is_clean_and_identical():
    from repro.sim.perf import run_shard_storm

    plain = run_shard_storm(groups=2, clients_per_group=4, requests=5,
                            nshards=2, executor="sequential")
    checked = run_shard_storm(groups=2, clients_per_group=4, requests=5,
                              nshards=2, executor="sequential", san=True)
    for key in ("completed", "records", "makespan"):
        assert checked[key] == plain[key]


# -- Shard internals used by the executors -------------------------------------


def test_shard_message_sort_key_orders_by_when_then_src():
    messages = [
        ShardMessage(2.0, 1.0, 0, 1, 1, "p", None),
        ShardMessage(1.0, 0.0, 1, 2, 0, "p", None),
        ShardMessage(1.0, 0.0, 0, 9, 1, "p", None),
        ShardMessage(1.0, 0.0, 1, 1, 0, "p", None),
    ]
    from repro.sim.shard import _message_key

    ordered = sorted(messages, key=_message_key)
    assert [(m.when, m.src_shard, m.src_seq) for m in ordered] == [
        (1.0, 0, 9), (1.0, 1, 1), (1.0, 1, 2), (2.0, 0, 1)]


def test_schedule_at_rejects_past():
    sim = Simulator()
    sim.now = 1.0
    with pytest.raises(SimulationError, match="in the past"):
        sim.schedule_at(0.5, lambda _p: None, None)


def test_collect_without_collector_returns_none():
    sharded = ShardedSimulator(2, 1.0, executor="sequential")
    sharded.shard(0).set_collector(lambda: "stats")
    assert sharded.collect() == {0: "stats", 1: None}
