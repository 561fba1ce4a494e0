"""Unit tests for the discrete-event kernel."""
# simlint: disable-file=D104,P202,P203 -- kernel tests assert exact simulated times and deliberately misuse calls to probe behaviour

import hashlib
import math
import random

import pytest

from repro.core.comparison import STACK_KINDS
from repro.sim import Resource, SimulationError, Simulator, Store, Timeout


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_timeout_advances_clock(sim):
    def proc():
        yield sim.timeout(2.5)
        return sim.now

    assert sim.run_process(proc()) == 2.5


def test_timeouts_fire_in_order(sim):
    fired = []

    def waiter(delay):
        yield sim.timeout(delay)
        fired.append(delay)

    for delay in (3.0, 1.0, 2.0):
        sim.spawn(waiter(delay))
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_negative_delay_rejected(sim):
    for delay in (-1, math.nan):
        with pytest.raises(ValueError):
            sim.timeout(delay)
    with pytest.raises(ValueError):
        sim.lane_timeout(math.nan)
    assert sim._sequence == 0 and not sim._lanes


def test_simultaneous_events_fifo(sim):
    """Ties break by scheduling order — determinism matters for repro."""
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abc":
        sim.spawn(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_return_value(sim):
    def inner():
        yield sim.timeout(1)
        return 42

    def outer():
        value = yield from inner()
        return value + 1

    assert sim.run_process(outer()) == 43


def test_event_trigger_wakes_waiter(sim):
    gate = sim.event()

    def waiter():
        value = yield gate
        return value

    def trigger():
        yield sim.timeout(5)
        gate.trigger("hello")

    proc = sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert proc.value == "hello"
    assert sim.now == 5


def test_event_double_trigger_rejected(sim):
    gate = sim.event()
    gate.trigger()
    with pytest.raises(SimulationError):
        gate.trigger()


def test_event_failure_propagates(sim):
    gate = sim.event()

    def waiter():
        yield gate

    proc = sim.spawn(waiter())
    gate.fail(ValueError("boom"))
    with pytest.raises(ValueError):
        sim.run()
    assert proc.ok is False


def test_late_waiter_defuses_already_failed_event(sim):
    # Regression: an event that fails with nobody waiting is recorded as
    # unhandled; a waiter that attaches *after* the failure was processed
    # still defuses it, so the run must not re-raise at the end.
    gate = sim.event()

    def failer():
        yield sim.timeout(1)
        gate.fail(ValueError("boom"))

    def late_waiter():
        yield sim.timeout(2)
        try:
            yield gate
        except ValueError:
            return "handled"
        return "missed"

    sim.spawn(failer())
    proc = sim.spawn(late_waiter())
    sim.run()
    assert proc.value == "handled"
    assert gate.defused


def test_late_non_defusing_callback_keeps_failure_fatal(sim):
    # A late add_callback that merely observes the event must not swallow
    # the failure: nobody defused it, so the run still raises.
    gate = sim.event()
    seen = []

    def failer():
        yield sim.timeout(1)
        gate.fail(ValueError("boom"))

    def observer():
        yield sim.timeout(2)
        gate.add_callback(lambda event: seen.append(event.ok))

    sim.spawn(failer())
    sim.spawn(observer())
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert seen == [False]


def test_unhandled_failure_raises(sim):
    def bad():
        yield sim.timeout(1)
        raise RuntimeError("unseen")

    sim.spawn(bad())
    with pytest.raises(RuntimeError):
        sim.run()


def test_process_exception_caught_by_parent(sim):
    def child():
        yield sim.timeout(1)
        raise KeyError("inner")

    def parent():
        proc = sim.spawn(child())
        try:
            yield proc
        except KeyError:
            return "caught"
        return "missed"

    assert sim.run_process(parent()) == "caught"


def test_any_of_returns_first(sim):
    def slow():
        yield sim.timeout(10)
        return "slow"

    def fast():
        yield sim.timeout(1)
        return "fast"

    def main():
        a = sim.spawn(slow())
        b = sim.spawn(fast())
        winner, value = yield sim.any_of([a, b])
        return value

    assert sim.run_process(main()) == "fast"
    assert sim.now == 1


def test_all_of_collects_values(sim):
    def worker(n):
        yield sim.timeout(n)
        return n

    def main():
        jobs = [sim.spawn(worker(n)) for n in (3, 1, 2)]
        values = yield sim.all_of(jobs)
        return values

    assert sim.run_process(main()) == [3, 1, 2]
    assert sim.now == 3


def test_all_of_empty_triggers_immediately(sim):
    def main():
        values = yield sim.all_of([])
        return values

    assert sim.run_process(main()) == []


def _holds(event, combinator):
    """Whether ``event``'s waiter list holds ``combinator``'s callback."""
    return any(getattr(waiter, "__self__", None) is combinator
               for waiter in event._callbacks)


@pytest.mark.parametrize("first", ["event", "timer"])
def test_fired_any_of_lets_go_of_its_pending_children(sim, first):
    # One child listed twice, and a timer: whichever fires first, the
    # pending loser's waiter list keeps nothing of the combinator.
    event = sim.event()
    timer = sim.timeout(2.0)
    any_of = sim.any_of([event, event, timer])
    sim._schedule_call1(event.trigger, "e", 1.0 if first == "event" else 3.0)
    sim.run(until=2.5 if first == "timer" else 1.5)
    winner, loser = (event, timer) if first == "event" else (timer, event)
    assert any_of.value[0] is winner
    assert loser._callbacks == []
    assert loser.defused
    sim.run()
    assert loser._callbacks is None


def test_shared_loser_is_let_go_only_by_the_any_of_that_fired(sim):
    a, b = sim.event(), sim.event()
    timer = sim.timeout(2.0)
    first = sim.any_of([a, timer])
    second = sim.any_of([b, timer])
    sim._schedule_call1(a.trigger, "a", 1.0)
    sim.run(until=1.5)
    assert first.value == (a, "a")
    assert not _holds(timer, first)
    assert _holds(timer, second)
    assert _holds(b, second)
    sim.run()
    assert second.value == (timer, None)


@pytest.mark.parametrize("loser", ["event", "process"])
def test_a_loser_that_fails_after_the_any_of_fired_is_defused(sim, loser):
    # The defusal guard: letting go keeps the loser's failure quiet, as
    # the callback did when it still ran.
    if loser == "event":
        child = sim.event()
        sim._schedule_call1(child.fail, ValueError("late"), 2.0)
    else:
        def doomed():
            yield sim.timeout(2.0)
            raise ValueError("late")
        child = sim.spawn(doomed())
    any_of = sim.any_of([sim.timeout(1.0, "t"), child])
    sim.run()
    assert any_of.value[1] == "t"
    assert child.ok is False
    assert child.defused


def test_failed_all_of_lets_go_of_its_pending_children(sim):
    first, later = sim.event(), sim.event()
    timer = sim.timeout(3.0)

    def doomed():
        yield sim.timeout(2.0)
        raise ValueError("doomed")

    proc = sim.spawn(doomed())
    all_of = sim.all_of([first, later, timer, proc])
    sim._schedule_call1(first.fail, ValueError("first"), 1.0)
    sim._schedule_call1(later.fail, ValueError("later"), 2.5)

    def waiter():
        try:
            yield all_of
        except ValueError as exc:
            return str(exc)

    caught = sim.spawn(waiter())
    sim.run(until=1.5)
    assert caught.value == "first"
    for child in (later, timer, proc):
        assert child._callbacks == []
        assert child.defused
    # Their later failures are defused: the run ends without raising.
    sim.run()
    assert later.ok is False and proc.ok is False


def test_run_until_stops_clock(sim):
    def forever():
        while True:
            yield sim.timeout(1)

    sim.spawn(forever())
    sim.run(until=5.5)
    assert sim.now == 5.5


def test_run_until_advances_clock_on_empty_calendar(sim):
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_run_until_leaves_future_events_pending(sim):
    fired = []

    def waiter():
        yield sim.timeout(10)
        fired.append(sim.now)

    sim.spawn(waiter())
    sim.run(until=4.0)
    assert sim.now == 4.0
    assert fired == []
    # The pending event survives the pause and fires on the next run.
    sim.run()
    assert fired == [10.0]
    assert sim.now == 10.0


def test_run_until_fires_events_at_exactly_until(sim):
    fired = []

    def waiter():
        yield sim.timeout(5.0)
        fired.append(sim.now)

    sim.spawn(waiter())
    sim.run(until=5.0)
    assert fired == [5.0]
    assert sim.now == 5.0


@pytest.mark.parametrize("pending", [True, False], ids=["pending", "empty"])
@pytest.mark.parametrize("entry", ["run", "run_process"])
def test_until_before_now_is_rejected(sim, entry, pending):
    def ticker():
        for _ in range(20):
            yield sim.timeout(1)

    def drive(until):
        if entry == "run":
            return sim.run(until=until)
        return sim.run_process(ticker(), until=until)

    if pending:
        sim.spawn(ticker())
    sim.run(until=6)
    calendar = list(sim._calendar)
    for until in (2, math.nan):
        with pytest.raises(SimulationError, match="in the past"):
            drive(until)
    # The clock never moves backwards and nothing was scheduled.
    assert sim.now == 6
    assert sim._calendar == calendar
    assert drive(6) is None   # until == now stays legal
    assert sim.now == 6


def test_utilization_reset_window_mid_acquisition(sim):
    from repro.sim import Resource

    resource = Resource(sim, capacity=1)

    def worker():
        yield from resource.acquire()
        yield sim.timeout(10.0)
        resource.release()

    def observer():
        yield sim.timeout(4.0)
        resource.stats.reset_window()
        yield sim.timeout(3.0)
        # The unit has been continuously in service across the reset, so
        # the new window is 100% busy.
        return resource.stats.utilization()

    sim.spawn(worker())
    utilization = sim.run_process(observer())
    assert utilization == pytest.approx(1.0)


def test_deadlock_detected(sim):
    def stuck():
        gate = sim.event()
        yield gate   # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck())


def test_yielding_non_event_fails(sim):
    def bad():
        yield 42

    with pytest.raises(TypeError):
        sim.run_process(bad())


def test_spawn_requires_generator(sim):
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)


def test_run_process_until_returns_value_when_finished(sim):
    def proc():
        yield sim.timeout(2.0)
        return "done"

    assert sim.run_process(proc(), until=5.0) == "done"
    assert sim.now == 2.0


def test_run_process_until_bounds_unfinished_process(sim):
    progress = []

    def proc():
        for step in range(10):
            yield sim.timeout(1.0)
            progress.append(step)
        return "finished"

    # The clock stops at the bound, the process stays pending on the
    # calendar, and the bounded run reports no value.
    assert sim.run_process(proc(), until=3.5) is None
    assert sim.now == 3.5
    assert progress == [0, 1, 2]
    sim.run()
    assert progress == list(range(10))


def test_run_process_until_skips_deadlock_check(sim):
    def stuck():
        gate = sim.event()
        yield gate   # never triggered

    # Unbounded runs raise on deadlock; bounded runs just stop the clock.
    assert sim.run_process(stuck(), until=1.0) is None
    assert sim.now == 1.0


def test_add_callback_after_processing_fires_next_step(sim):
    seen = []
    event = sim.event()

    def waiter():
        yield event
        seen.append("waiter")

    def late():
        yield sim.timeout(1.0)
        event.add_callback(lambda ev: seen.append(("late", ev.value)))
        yield sim.timeout(0.0)

    event.trigger("v")
    sim.spawn(waiter())
    sim.run_process(late())
    assert seen == ["waiter", ("late", "v")]


def test_hold_matches_timeout_semantics(sim):
    log = []

    def holder():
        yield sim.hold(2.0)
        log.append(("hold", sim.now))

    def timeouter():
        yield sim.timeout(2.0)
        log.append(("timeout", sim.now))

    sim.spawn(holder())
    sim.spawn(timeouter())
    sim.run()
    # Same instant; spawn order decides the tie, exactly as with two
    # timeouts.
    assert log == [("hold", 2.0), ("timeout", 2.0)]


def test_hold_outside_process_rejected(sim):
    with pytest.raises(SimulationError):
        sim.hold(1.0)


def test_hold_negative_delay_rejected(sim):
    def proc(delay):
        yield sim.hold(delay)

    for delay in (-0.5, math.nan):
        with pytest.raises(ValueError):
            sim.run_process(proc(delay))
    assert sim.now == 0.0


def test_store_parked_getter_receives_item(sim):
    from repro.sim import Store

    store = Store(sim, name="inbox")
    received = []

    def getter(tag):
        item = yield from store.get()
        received.append((tag, item, sim.now))

    def putter():
        yield sim.timeout(1.0)
        store.put("a")
        store.put("b")

    sim.spawn(getter("g1"))
    sim.spawn(getter("g2"))
    sim.spawn(putter())
    sim.run()
    # FIFO hand-off: oldest parked getter gets the oldest item.
    assert received == [("g1", "a", 1.0), ("g2", "b", 1.0)]


# -- the order contract ---------------------------------------------------------
# The calendar is a heap, a FIFO of records due at the current instant
# and a FIFO lane per lane_timeout delay.  Whichever structure a record
# waits in, the run loop must dispatch the same (when, seq) stream the
# plain heap did, and every run call must return with the heap holding
# every pending record.


class _Boom(Exception):
    pass


class _StreamHook:
    """A per-record observer: checks and digests the dispatched stream."""

    def __init__(self):
        self.count = 0
        self.last = (-math.inf, -1)
        self.digest = hashlib.sha256()

    def note_event(self, record):
        when, seq, kind, target = record[:4]
        assert (when, seq) > self.last, (record, self.last)
        self.last = (when, seq)
        self.count += 1
        if kind == 1:
            label = target.__name__
        elif kind == 0:
            label = type(target).__name__
        else:
            label = target.name
        self.digest.update(
            ("%s %d %d %s\n" % (when.hex(), seq, kind, label)).encode())


def _contract_worker(sim, rng, index, resource, store, log):
    """One process: a random walk over every way to push a record."""
    for _ in range(50):
        choice = rng.randrange(10)
        if choice == 0:             # one-off timeout, zero delays included
            yield sim.timeout(rng.choice((0.0, 0.25, 0.5, 1.0)))
        elif choice == 1:           # lane timers at two delays, interleaved
            timer = sim.lane_timeout(rng.choice((0.7, 1.1)))
            reply = sim.event()
            sim._schedule_call1(reply.trigger, index,
                                rng.choice((0.001, 0.25, 0.9, 1.5)))
            winner, _ = yield sim.any_of([reply, timer])
            log.append(("lane", index, winner is reply, sim.now))
        elif choice == 2:           # contended grants and release records
            yield from resource.use(rng.choice((0.0, 0.25, 0.5)))
        elif choice == 3:
            yield sim.hold(rng.choice((0.0, 0.25, 0.75)))
        elif choice == 4:           # unpark: a parked getter gets the item
            if rng.random() < 0.5:
                store.put(index)
            else:
                item = yield from store.get()
                log.append(("got", index, item, sim.now))
        elif choice == 5:           # spawn a child and join it
            yield sim.spawn(_contract_child(sim, rng.choice((0.0, 0.5))),
                            name="c%d" % index)
        elif choice == 6:           # late add_callback and a late waiter
            event = sim.event()
            event.trigger(index)
            yield sim.timeout(0.0)
            event.add_callback(lambda e: log.append(("late", e.value)))
            value = yield event
            log.append(("late-wait", value, sim.now))
        elif choice == 7:           # fail, delivered through a call1 record
            event = sim.event()
            sim._schedule_call1(event.fail, _Boom(index),
                                rng.choice((0.0, 0.25)))
            try:
                yield event
            except _Boom:
                log.append(("failed", index, sim.now))
        elif choice == 8:           # an exception escaping a callback
            event = sim.event()
            event.trigger(index)    # FIFO, due before the heap's boom
            sim._schedule_call1(_boom, index)
            yield sim.spawn(_contract_child(sim, 0.0), name="b%d" % index)
        else:                       # all_of over a mix of events
            yield sim.all_of([sim.timeout(0.25), sim.lane_timeout(0.7),
                              sim.spawn(_contract_child(sim, 0.25),
                                        name="a%d" % index)])


def _contract_child(sim, delay):
    yield sim.timeout(delay)
    return delay


def _boom(value):
    raise _Boom(value)


def _contract_run(seed):
    """Drive the random schedule through every kind of run call."""
    rng = random.Random(seed)
    sim = Simulator()
    hook = _StreamHook()
    sim.recorder = hook
    resource = Resource(sim, capacity=2, name="r")
    store = Store(sim, name="s")
    log = []
    for index in range(8):
        sim.spawn(_contract_worker(sim, rng, index, resource, store, log),
                  name="w%d" % index)

    def short():
        yield sim.timeout(0.0)
        return sim.now

    calls = {"until": 0, "process": 0, "escaped": 0}
    while sim.pending():
        choice = rng.randrange(4)
        try:
            if choice < 2:
                # Stop exactly at a pending record's time.
                records = sim.pending()
                until = records[rng.randrange(min(len(records), 12))][0]
                sim.run(until=until)
                calls["until"] += 1
            elif choice == 2:
                assert sim.run_process(short(), name="short") == sim.now
                calls["process"] += 1
            else:
                sim.run(until=sim.now + rng.choice((0.5, 2.0)))
                calls["until"] += 1
        except _Boom:
            calls["escaped"] += 1
        assert sim._sequence - len(sim._calendar) == hook.count
        assert len(sim.pending()) == len(sim._calendar)
    assert sim._sequence == hook.count
    return (hook.digest.hexdigest(), hook.count, sim.now.hex(), calls,
            len(log), store.drain())


# Captured from the single-heap kernel this order contract was written
# against; never regenerate them to make a change pass.
_CONTRACT_PINS = {
    1: ("f921e988f9f790defda097c7a6cb69a1f1fecc232db46be95848ccb7a8ba50bc",
        1161, "0x1.d4dd2f1a9fbe7p+3",
        {"until": 17, "process": 25, "escaped": 48}, 176, []),
    2: ("e3aed76ae2b3949e521707e444e2f001038c7ca4a7312439cf0397204c1afb4e",
        1192, "0x1.3e6a7ef9db22cp+4",
        {"until": 34, "process": 21, "escaped": 47}, 174, []),
}


@pytest.mark.parametrize("seed", sorted(_CONTRACT_PINS))
def test_every_push_path_keeps_the_heap_order(seed):
    outcome = _contract_run(seed)
    calls = outcome[3]
    assert calls["until"] and calls["process"] and calls["escaped"]
    assert outcome == _CONTRACT_PINS[seed]


def test_lane_timeout_is_a_timeout_in_the_same_slot(sim):
    fired = []

    def arm(delay, tag, lane):
        make = sim.lane_timeout if lane else sim.timeout
        timer = make(delay, tag)
        assert isinstance(timer, Timeout) and timer.delay == delay
        value = yield timer
        fired.append((value, sim.now))

    for tag, (delay, lane) in enumerate([(1.1, True), (0.5, False),
                                          (1.1, True), (1.1, False),
                                          (0.7, True), (1.1, True)]):
        sim.spawn(arm(delay, tag, lane))
    sim.run(until=0.6)
    # Only each lane's head is on the heap during a run; afterwards the
    # heap holds every pending record again.
    assert len(sim._calendar) == len(sim.pending()) == 5
    sim.run()
    assert fired == [(1, 0.5), (4, 0.7), (0, 1.1), (2, 1.1), (3, 1.1),
                     (5, 1.1)]
    with pytest.raises(ValueError):
        sim.lane_timeout(-1.0)


def test_pending_sees_records_scheduled_outside_a_run(sim):
    event = sim.event()
    event.trigger("now")
    proc = sim.spawn(_contract_child(sim, 1.0))
    timer = sim.timeout(2.0)
    pending = sim.pending()
    assert [record[3] for record in pending] == [event, proc, timer]
    assert len(pending) == sim._sequence
    assert sim._calendar == [pending[2]]
    sim.run()
    assert sim.pending() == [] and proc.value == 1.0


def test_pending_counts_every_record_of_an_nfs_run():
    from repro.core.comparison import make_stack
    from repro.obs.bench import WORKLOADS

    stack = make_stack("nfsv3")
    sim = stack.sim
    # Mounting dispatched records before the counter was attached.
    seen = [None] * (sim._sequence - len(sim.pending()))

    class Counter:
        lane_depth = 0

        def note_event(self, record):
            seen.append(record)
            assert len(sim.pending()) == sim._sequence - len(seen)
            self.lane_depth = max([self.lane_depth]
                                  + [len(lane) for lane in sim._lanes.values()])

    sim.recorder = counter = Counter()
    stack.run(WORKLOADS["smoke"](stack.client), name="smoke")
    assert counter.lane_depth > 1      # retransmit timers waited in a lane
    dispatched = len(seen)
    # Past the 1.1 s retransmit timers: the lanes drain during the run.
    sim.run(until=sim.now + 1.5)
    assert len(seen) > dispatched
    assert len(sim.pending()) == sim._sequence - len(seen)


# -- the per-record observer --------------------------------------------------
# ``Simulator.recorder`` holds any object with a ``note_event(record)``
# method, and the dispatch loop calls it once per calendar record.  That
# is the whole contract: nothing else on a full stack may call into it.


def _records_dispatched(sim):
    # Between runs every record not yet dispatched is pending (heap,
    # FIFO or lane), so the rest of the sequence numbers were dispatched.
    return sim._sequence - len(sim.pending())


def _smoke_run(config, observer):
    """The smoke workload and a quiesce on one testbed, ``observer``
    attached first (``None``: a plain run).  Returns the records
    dispatched from the attachment on, the message counters and the
    final clock."""
    from repro.core.comparison import make_stack
    from repro.core.multiclient import SharedNfsTestbed
    from repro.core.params import IscsiParams, TestbedParams
    from repro.obs.bench import WORKLOADS

    if config == "shared-striped":
        # The shared testbed mounts its servers when it is built.
        bed = SharedNfsTestbed(nclients=2, nservers=2, striped=True)
        start = _records_dispatched(bed.sim)
        bed.sim.recorder = observer
        bed.run(WORKLOADS["smoke"](bed.clients[0]), name="smoke")
        bed.quiesce()
        # A striped client's counters fan out, one per server.
        return (_records_dispatched(bed.sim) - start,
                [[counters.snapshot() for counters in fan.per_server]
                 for fan in bed.counters],
                bed.sim.now)
    if config == "iscsi-mcs2":
        stack = make_stack("iscsi", TestbedParams(
            iscsi=IscsiParams(connections=2)), mounted=False)
    else:
        stack = make_stack(config, mounted=False)
    start = _records_dispatched(stack.sim)
    stack.sim.recorder = observer
    stack.mount()
    stack.run(WORKLOADS["smoke"](stack.client), name="smoke")
    stack.quiesce()
    return (_records_dispatched(stack.sim) - start,
            stack.counters.snapshot(), stack.sim.now)


@pytest.mark.parametrize("config",
                         STACK_KINDS + ("iscsi-mcs2", "shared-striped"))
def test_note_event_observer_sees_every_dispatched_record(config):
    observer = _Dispatched()
    dispatched, counters, now = _smoke_run(config, observer)
    assert len(observer.records) == dispatched > 0
    assert (dispatched, counters, now) == _smoke_run(config, None)


# -- wake order ---------------------------------------------------------------
# One event with every kind of waiter registered on it: a process, an
# AnyOf child, a second process, a plain callback and an AllOf child,
# plus a waiter that arrives after the event was processed.  The run loop
# wakes them in registration order; the logs below pin each wake-up and
# every dispatched record.


class _Dispatched:
    """A per-record observer: the (when, seq, kind) of each record."""

    def __init__(self):
        self.records = []

    def note_event(self, record):
        self.records.append(record[:3])


def _wake_order(variant):
    sim = Simulator()
    sim.recorder = dispatched = _Dispatched()
    gate = sim.event()
    log = []

    def waiter(tag, event):
        try:
            value = yield event
        except ValueError as exc:
            log.append((tag, sim.now, "raised", str(exc)))
        else:
            if tag == "any_of":
                value = value[1]
            log.append((tag, sim.now, "value", value))

    def callback(tag):
        return lambda event: log.append((tag, sim.now, event.ok))

    def main():
        if variant == "fail-unhandled":
            gate.add_callback(callback("callback"))
        else:
            sim.spawn(waiter("first", gate), name="first")
            yield sim.timeout(0.0)
            any_of = sim.any_of([gate, sim.timeout(5.0)])
            sim.spawn(waiter("second", gate), name="second")
            yield sim.timeout(0.0)
            gate.add_callback(callback("callback"))
            all_of = sim.all_of([gate, sim.timeout(2.0, "t")])
            sim.spawn(waiter("any_of", any_of), name="any_of")
            sim.spawn(waiter("all_of", all_of), name="all_of")
        yield sim.timeout(1.0)
        if variant == "trigger":
            gate.trigger("v")
        else:
            gate.fail(ValueError("boom"))
        yield sim.timeout(0.5)
        if variant == "fail-unhandled":
            gate.add_callback(callback("late"))
        else:
            sim.spawn(waiter("late", gate), name="late")
        log.append(("main", sim.now, "done"))

    sim.spawn(main(), name="main")
    try:
        sim.run()
    except ValueError as exc:
        log.append(("run", sim.now, "raised", str(exc)))
    return log, dispatched.records, gate.defused


# Captured from the kernel whose Event._process called a bound
# Process._on_event per waiting process; never regenerate them.
_SETUP_RECORDS = [(0.0, 1, 2), (0.0, 2, 2), (0.0, 3, 0), (0.0, 5, 2),
                  (0.0, 6, 0), (0.0, 8, 2), (0.0, 9, 2), (1.0, 10, 0),
                  (1.0, 11, 0), (1.0, 13, 0), (1.0, 14, 0), (1.0, 15, 0),
                  (1.0, 16, 0)]
_WAKE_PINS = {
    "trigger": (
        [("first", 1.0, "value", "v"), ("second", 1.0, "value", "v"),
         ("callback", 1.0, True), ("any_of", 1.0, "value", "v"),
         ("main", 1.5, "done"), ("late", 1.5, "value", "v"),
         ("all_of", 2.0, "value", ["v", "t"])],
        _SETUP_RECORDS + [(1.5, 12, 0), (1.5, 17, 2), (1.5, 18, 0),
                          (1.5, 19, 1), (1.5, 20, 0), (2.0, 7, 0),
                          (2.0, 21, 0), (2.0, 22, 0), (5.0, 4, 0)],
        False),
    "fail": (
        [("first", 1.0, "raised", "boom"), ("second", 1.0, "raised", "boom"),
         ("callback", 1.0, False), ("any_of", 1.0, "raised", "boom"),
         ("all_of", 1.0, "raised", "boom"), ("main", 1.5, "done"),
         ("late", 1.5, "raised", "boom")],
        _SETUP_RECORDS + [(1.0, 17, 0), (1.0, 18, 0), (1.5, 12, 0),
                          (1.5, 19, 2), (1.5, 20, 0), (1.5, 21, 1),
                          (1.5, 22, 0), (2.0, 7, 0), (5.0, 4, 0)],
        True),
    "fail-unhandled": (
        [("callback", 1.0, False), ("main", 1.5, "done"),
         ("late", 1.5, False), ("run", 1.5, "raised", "boom")],
        [(0.0, 1, 2), (1.0, 2, 0), (1.0, 3, 0), (1.5, 4, 0), (1.5, 5, 1),
         (1.5, 6, 0)],
        False),
}


@pytest.mark.parametrize("variant", sorted(_WAKE_PINS))
def test_waiters_wake_in_registration_order(variant):
    assert _wake_order(variant) == _WAKE_PINS[variant]
