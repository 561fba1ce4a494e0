"""Unit and property tests for Resource/Store and ResourceStats.

``ResourceStats`` is a resource's one busy-time integral; its window
(``reset_window``) is what a host's CPU-utilization figures read.
"""
# simlint: disable-file=P202 -- tests deliberately leak an acquire to assert the leak is observable

import hashlib
import heapq
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import Resource, SimulationError, Simulator, Store


def _contended_run(sim, capacity=1, holds=(2.0, 3.0, 1.0)):
    """Spawn one worker per hold on a fresh capacity-N resource."""
    res = Resource(sim, capacity=capacity)

    def worker(hold):
        yield from res.use(hold)

    for hold in holds:
        sim.spawn(worker(hold))
    sim.run()
    return res


def test_resource_serializes_capacity_one(sim):
    res = Resource(sim, capacity=1)
    done = []

    def worker(tag, hold):
        yield from res.use(hold)
        done.append((tag, sim.now))

    sim.spawn(worker("a", 2.0))
    sim.spawn(worker("b", 3.0))
    sim.run()
    assert done == [("a", 2.0), ("b", 5.0)]


def test_resource_parallel_capacity_two(sim):
    res = Resource(sim, capacity=2)
    done = []

    def worker(tag):
        yield from res.use(2.0)
        done.append((tag, sim.now))

    for tag in "abc":
        sim.spawn(worker(tag))
    sim.run()
    assert done == [("a", 2.0), ("b", 2.0), ("c", 4.0)]


def test_resource_fifo_ordering(sim):
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag):
        yield from res.acquire()
        order.append(tag)
        yield sim.timeout(1)
        res.release()

    for tag in "abcd":
        sim.spawn(worker(tag))
    sim.run()
    assert order == list("abcd")


def test_release_without_acquire_rejected(sim):
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_store_fifo(sim):
    store = Store(sim)
    store.put(1)
    store.put(2)

    def getter():
        a = yield from store.get()
        b = yield from store.get()
        return (a, b)

    assert sim.run_process(getter()) == (1, 2)


def test_store_blocks_until_put(sim):
    store = Store(sim)

    def getter():
        item = yield from store.get()
        return (item, sim.now)

    def putter():
        yield sim.timeout(3)
        store.put("x")

    sim.spawn(putter())
    assert sim.run_process(getter()) == ("x", 3)


def test_store_get_outside_a_process_queues_no_getter(sim):
    store = Store(sim)
    with pytest.raises(SimulationError):
        next(store.get())
    store.put("x")
    sim.run()
    assert len(store) == 1
    assert store.get_nowait() == "x"


def test_store_get_nowait_and_drain(sim):
    store = Store(sim)
    assert store.get_nowait() is None
    store.put(1)
    store.put(2)
    assert store.get_nowait() == 1
    assert store.drain() == [2]
    assert len(store) == 0


# ------------------------------------------------------------- ResourceStats

def test_stats_counts_waits_on_contended_resource(sim):
    # Three holds of 2/3/1 s on capacity 1: b waits 2 s, c waits 5 s.
    res = _contended_run(sim)
    stats = res.stats
    assert stats.acquisitions == 3
    assert stats.contended == 2
    assert stats.total_wait == pytest.approx(7.0)
    assert stats.max_wait == pytest.approx(5.0)
    assert stats.mean_wait() == pytest.approx(7.0 / 3)
    assert stats.wait_hist.count == 2  # only the contended acquires


def test_stats_uncontended_resource_records_no_waits(sim):
    res = _contended_run(sim, capacity=4)
    stats = res.stats
    assert stats.acquisitions == 3
    assert stats.contended == 0
    assert stats.total_wait == 0.0
    assert stats.wait_hist.count == 0
    assert stats.littles_law_residual() == 0.0


def test_stats_queue_integral_equals_total_wait_when_drained(sim):
    # Little's law as an identity: queue empty at both window edges, so
    # integral(queue dt) == sum(waits) exactly.
    res = _contended_run(sim, holds=(2.0, 3.0, 1.0, 0.5))
    stats = res.stats
    assert stats.littles_law_residual() < 1e-9
    assert stats.mean_queue_length() == pytest.approx(
        stats.total_wait / stats.elapsed)
    assert stats.arrival_rate() == pytest.approx(
        stats.acquisitions / stats.elapsed)


def test_stats_reset_window_restarts_accounting(sim):
    res = Resource(sim, capacity=1)

    def worker():
        yield from res.use(4.0)
        res.stats.reset_window()
        yield sim.timeout(6.0)

    sim.run_process(worker())
    stats = res.stats
    assert stats.acquisitions == 0
    assert stats.busy_time == 0.0
    assert stats.utilization() == pytest.approx(0.0)
    assert stats.elapsed == pytest.approx(6.0)


@pytest.mark.parametrize("holds, reset_at, contended, waits", [
    # Two acquirers queued at 0 behind a 2 s hold: inside the window
    # that opens at 1.8 s they wait 0.2 s and 3.2 s, not 2 s and 5 s.
    ((2.0, 3.0, 1.0), 1.8, 2, (0.2, 3.2)),
    # The reset falls on the instant a release hands the unit to the
    # queued acquirer, before its grant record runs: no wait inside.
    ((1.0, 1.0), 1.0, 0, (0.0,)),
], ids=["queued", "handed-over"])
def test_stats_reset_window_restarts_queued_waits(sim, holds, reset_at,
                                                  contended, waits):
    res = Resource(sim, capacity=1)

    def worker(hold):
        yield from res.use(hold)

    def monitor():
        yield sim.timeout(reset_at)
        res.stats.reset_window()

    for hold in holds:
        sim.spawn(worker(hold))
    sim.spawn(monitor())
    sim.run()
    stats = res.stats
    assert res.queue_length == 0
    assert stats.contended == contended
    assert stats.total_wait == pytest.approx(sum(waits))
    assert stats.max_wait == pytest.approx(max(waits))
    assert stats.littles_law_residual() < 1e-9


def test_utilization_full(sim):
    res = Resource(sim, capacity=1)

    def worker():
        yield from res.use(10.0)

    sim.run_process(worker())
    assert res.stats.utilization() == pytest.approx(1.0)
    assert res.stats.busy_time == pytest.approx(10.0)


def test_stats_utilization_tracks_capacity(sim):
    # One 10 s hold keeps half of a capacity-2 resource busy.
    res = Resource(sim, capacity=2)

    def worker():
        yield from res.use(10.0)

    sim.run_process(worker())
    assert res.stats.utilization() == pytest.approx(0.5)
    assert res.stats.busy_time == pytest.approx(10.0)


def test_stats_as_dict_is_json_ready(sim):
    import json

    res = _contended_run(sim)
    payload = res.stats.as_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["capacity"] == 1
    assert payload["acquisitions"] == 3
    assert payload["contended"] == 2
    assert payload["wait_s"] == pytest.approx(7.0)
    assert 0.0 <= payload["utilization"] <= 1.0


@settings(max_examples=30, deadline=None)
@given(holds=st.lists(st.floats(min_value=0.01, max_value=5.0),
                      min_size=1, max_size=12),
       capacity=st.integers(min_value=1, max_value=4))
def test_stats_littles_law_property(holds, capacity):
    """Over a run that starts and ends with an empty queue, the
    queue-depth integral equals the summed waits (Little's law), and
    busy time equals the summed holds."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)

    def worker(hold):
        yield from res.use(hold)

    for hold in holds:
        sim.spawn(worker(hold))
    sim.run()
    stats = res.stats
    assert stats.acquisitions == len(holds)
    assert stats.littles_law_residual() < 1e-9
    assert stats.busy_time == pytest.approx(sum(holds))


@settings(max_examples=30, deadline=None)
@given(holds=st.lists(st.floats(min_value=0.01, max_value=5.0),
                      min_size=1, max_size=12),
       capacity=st.integers(min_value=1, max_value=4))
def test_resource_conservation_property(holds, capacity):
    """Total busy time equals the sum of holds; makespan is bounded by
    the serial and ideal-parallel extremes."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)

    def worker(hold):
        yield from res.use(hold)

    for hold in holds:
        sim.spawn(worker(hold))
    sim.run()
    total = sum(holds)
    assert res.stats.busy_time == pytest.approx(total)
    assert sim.now <= total + 1e-9
    assert sim.now >= total / capacity - 1e-9
    assert res.available == capacity


@settings(max_examples=60, deadline=None)
@given(holds=st.lists(st.floats(min_value=0.01, max_value=5.0),
                      min_size=1, max_size=12),
       capacity=st.integers(min_value=1, max_value=3),
       fraction=st.floats(min_value=0.0, max_value=0.95))
@example(holds=[1.0], capacity=1, fraction=0.5)
@example(holds=[2.0, 3.0, 1.0], capacity=1, fraction=0.3)
@example(holds=[1.0, 1.0], capacity=1, fraction=0.5)
def test_stats_reset_window_counts_only_the_window_property(
        holds, capacity, fraction):
    """A window reset mid-run, with units in service and (given more
    holds than units) acquirers queued, counts the busy time inside
    ``[reset, end]`` and nothing before it.

    The reference is the FIFO list schedule of the holds, computed here
    without the simulator: each hold starts on the unit that frees first.
    """
    free = [0.0] * capacity
    spans = []
    for hold in holds:
        start = heapq.heappop(free)
        heapq.heappush(free, start + hold)
        spans.append((start, start + hold))
    end = max(free)
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    resets = []

    def worker(hold):
        yield from res.use(hold)

    def monitor():
        yield sim.timeout(fraction * end)
        res.stats.reset_window()
        resets.append(sim.now)

    for hold in holds:
        sim.spawn(worker(hold))
    sim.spawn(monitor())
    sim.run()
    [reset] = resets
    assert abs(sim.now - end) < 1e-9
    assert res.stats.window_start == reset
    window = sum(max(0.0, stop - max(start, reset)) for start, stop in spans)
    assert res.stats.busy_time == pytest.approx(window, abs=1e-9)
    assert res.stats.utilization() == pytest.approx(
        window / (capacity * (end - reset)), abs=1e-9)
    # The queue has drained, so the window's waits add up to its
    # queue-depth integral, whatever was queued at the reset.
    assert res.queue_length == 0
    assert res.stats.littles_law_residual() < 1e-9


# ------------------------------------------------------------ hold contract


def _mixed_storm(capacity):
    """Uncontended and contended ``use`` plus ``acquire``/``release``.

    Zero-length thinks and holds make acquirers queue and be granted at
    the instant they arrived (a wait of exactly 0), and a monitor reads
    the utilization mid-run, so ``ResourceStats`` also commits its
    integrals between transitions.
    Returns everything the hold contract pins: the dispatched
    ``(when, seq)`` stream, the final ``_sequence`` and the accounting.
    """
    sim = Simulator()
    res = Resource(sim, capacity=capacity, name="storm")
    rng = random.Random(41 + capacity)
    stream = []

    class StreamRecorder:
        def note_event(self, record):
            stream.append((record[0], record[1]))

    sim.recorder = StreamRecorder()

    def worker(rounds):
        for _ in range(rounds):
            think = rng.choice((0.0, 0.0, 0.37, 1.1, 2.3))
            if think:
                yield sim.timeout(think)
            if rng.random() < 0.6:
                yield from res.use(rng.choice((0.0, 0.0, 0.13, 0.29)))
            else:
                yield from res.acquire()
                try:
                    yield sim.timeout(rng.choice((0.0, 0.11, 0.23)))
                finally:
                    res.release()

    def monitor():
        for tick in range(12):
            yield sim.timeout(0.37)
            # _STORM_EXPECTED was recorded with reads at exactly these ticks.
            if tick in (1, 3, 7, 9, 11):
                res.stats.utilization()

    for index in range(3 * capacity + 1):
        sim.spawn(worker(60 + index), name="w%d" % index)
    sim.spawn(monitor(), name="monitor")
    sim.run()
    stats = res.stats
    return {
        "records": len(stream),
        "stream_sha256": hashlib.sha256(repr(stream).encode()).hexdigest(),
        "sequence": sim._sequence,
        "stats": stats.as_dict(),
        "stats_busy": stats.busy_time.hex(),
        "stats_wait": stats.total_wait.hex(),
        "queue_integral": stats.queue_integral.hex(),
    }


# Recorded from the generator-based Resource (a gate Event per contended
# wait, a Simulator.hold record per hold): the one-record holds must
# dispatch the same (when, seq) stream and accumulate bit-identical
# figures.
_STORM_EXPECTED = {
    1: {
        "records": 499,
        "stream_sha256": (
            "6f6a2e752a4f3f71d2e3e9a42410204c"
            "69410c69ae2c9839511505be42ea9a56"),
        "sequence": 499,
        "stats": {
            "capacity": 1, "utilization": 0.368370431, "busy_s": 26.81,
            "acquisitions": 246, "contended": 64, "wait_s": 11.3,
            "mean_wait_s": 0.045934959, "max_wait_s": 0.4, "p95_wait_s": 0.4,
            "mean_queue": 0.155262435,
        },
        "stats_busy": "0x1.acf5c28f5c27ep+4",
        "stats_wait": "0x1.6999999999988p+3",
        "queue_integral": "0x1.6999999999988p+3",
    },
    2: {
        "records": 821,
        "stream_sha256": (
            "bdc96ae9c33832e0678927de3b033886"
            "5e94118b406f5749cb4ca604254acaa2"),
        "sequence": 821,
        "stats": {
            "capacity": 2, "utilization": 0.35427274, "busy_s": 51.49,
            "acquisitions": 441, "contended": 83, "wait_s": 8.76,
            "mean_wait_s": 0.019863946, "max_wait_s": 0.3,
            "p95_wait_s": 0.262144, "mean_queue": 0.120544929,
        },
        "stats_busy": "0x1.9beb851eb8515p+5",
        "stats_wait": "0x1.1851eb851eb9ap+3",
        "queue_integral": "0x1.1851eb851eb9ap+3",
    },
}


@pytest.mark.parametrize("capacity", [1, 2])
def test_mixed_storm_matches_recorded_stream_and_accounting(capacity):
    assert _mixed_storm(capacity) == _STORM_EXPECTED[capacity]


def test_hold_end_record_names_the_process_it_resumes(sim):
    """A release record's target is the process the hold end resumes,
    and a queued acquirer is granted by one ``Resource._grant`` call1."""
    cpu = Resource(sim, capacity=1, name="cpu")
    records = []

    class Observer:
        def note_event(self, record):
            records.append(record)

    sim.recorder = Observer()

    def worker():
        yield from cpu.use(1.0)     # uncontended: the release record
        yield from cpu.use(1.0)

    def rival():
        yield from cpu.use(0.5)     # queued: granted, then released

    sim.spawn(worker(), name="worker")
    sim.spawn(rival(), name="rival")
    sim.run()
    releases = [(when, target.name)
                for when, _seq, kind, target, _payload in records
                if kind == 4]
    assert releases == [(1.0, "worker"), (1.5, "rival"), (2.5, "worker")]
    grants = [kind for _when, _seq, kind, target, _payload in records
              if getattr(target, "__qualname__", None) == "Resource._grant"]
    assert grants == [1, 1]


def test_use_rejects_negative_duration_before_queueing(sim):
    res = Resource(sim, capacity=1)
    unchanged = []

    def state():
        return (sim._sequence, res.available, res.queue_length,
                res.stats.acquisitions, res.stats._queue_len)

    def attempt():
        for duration in (-1.0, math.nan):
            before = state()
            with pytest.raises(ValueError):
                res.use(duration)  # simlint: disable=P203 -- raises before acting
            unchanged.append(state() == before)

    def caller():
        attempt()                   # a unit is free
        yield sim.timeout(1.0)
        attempt()                   # the holder has the only unit

    def holder():
        yield from res.use(5.0)

    sim.spawn(caller())
    sim.spawn(holder())
    sim.run()
    assert unchanged == [True] * 4
    assert res.stats.acquisitions == 1
    assert res.available == 1


def test_use_outside_a_process_raises_before_taking_a_unit(sim):
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.use(1.0)  # simlint: disable=P203 -- raises before acting
    assert res.available == 1
    assert res.queue_length == 0
    assert res.stats.acquisitions == 0
    assert sim._sequence == 0 and not sim._calendar


def test_release_beyond_acquires_rejected(sim):
    res = Resource(sim, capacity=2)

    def worker():
        yield from res.acquire()
        res.release()
        res.release()

    with pytest.raises(SimulationError):
        sim.run_process(worker())
    assert res.available == 2
