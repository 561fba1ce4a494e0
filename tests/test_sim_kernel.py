"""Unit tests for the discrete-event kernel."""
# simlint: disable-file=D104,P202,P203 -- kernel tests assert exact simulated times and deliberately misuse calls to probe behaviour

import pytest

from repro.sim import Interrupt, SimulationError


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
    with pytest.raises(ValueError):
        sim.timeout(-1)


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


def test_interrupt_delivers_cause(sim):
    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt as stop:
            return (stop.cause, sim.now)
        return None

    proc = sim.spawn(sleeper())

    def interrupter():
        yield sim.timeout(1)
        proc.interrupt("wake up")

    sim.spawn(interrupter())
    sim.run()
    assert proc.value == ("wake up", 1)


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
        while True:
            yield sim.timeout(1)

    def drive(until):
        if entry == "run":
            return sim.run(until=until)
        return sim.run_process(ticker(), until=until)

    if pending:
        sim.spawn(ticker())
    sim.run(until=6)
    calendar = list(sim._calendar)
    with pytest.raises(SimulationError, match="in the past"):
        drive(2)
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
        resource.tracker.reset_window()
        yield sim.timeout(3.0)
        # The unit has been continuously in service across the reset, so
        # the new window is 100% busy.
        return resource.tracker.utilization()

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
    def proc():
        yield sim.hold(-0.5)

    with pytest.raises(ValueError):
        sim.run_process(proc())


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
