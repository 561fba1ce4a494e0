"""Discrete-event simulation kernel.

The kernel implements a classic event-calendar simulator with
generator-coroutine processes, similar in spirit to SimPy but small,
deterministic, and tailored to this project:

* A :class:`Simulator` owns the virtual clock and the event calendar.
* A :class:`Process` wraps a generator.  The generator ``yield``\\ s
  :class:`Event` objects to block on them, and uses ``yield from`` to call
  sub-coroutines (the return value of the inner generator propagates).
* Every stochastic decision in the wider library goes through an explicitly
  seeded ``random.Random``; the kernel itself is fully deterministic —
  simultaneous events fire in scheduling order.

Performance notes
-----------------
The calendar holds flat ``(when, seq, kind, target, payload)`` records
instead of closures: scheduling never allocates a lambda, and the run
loop dispatches on the small integer ``kind`` directly.  ``seq`` is
unique, so heap comparisons never reach ``kind`` — the firing order is
exactly the ``(when, seq)`` contract the experiments rely on.  All
per-event classes use ``__slots__``.

The calendar is three structures, so that the binary heap holds only
the records whose order is not known when they are scheduled:

* the *heap* (``_calendar``), keyed by ``(when, seq)``;
* the *FIFO* (``_fifo``) of records scheduled for the current instant:
  ``Event.trigger``/``fail``, a late ``add_callback``, a process spawn,
  ``unpark`` and a resource grant.  They carry ``when == now`` and
  rising ``seq``, so they arrive in order and cost a deque append and
  pop instead of a heap push and pop.  The clock cannot advance while
  the FIFO holds records: they have the smallest keys;
* the *lanes* (``_lanes``), one FIFO per :meth:`Simulator.lane_timeout`
  delay.  Timers armed with one delay are created in ``(when, seq)``
  order, so only a lane's head waits on the heap, and dispatching it
  pushes the next.  A lane record is an event record whose payload is
  its lane.  The RPC retransmission timers are the one user: each call
  arms one, and it stays pending for a second after the reply, so on
  the heap they were nearly all of an NFS run's pending records.  An
  answered timer pins only itself: the call's fired ``AnyOf`` took its
  callback off the timer, so the combinator, the reply event and the
  reply message are freed when the call returns, and the timer's record
  wakes nobody when it is dispatched.

The loop takes the FIFO head unless the heap top compares smaller on
the same ``(when, seq)`` key (a ``timeout(0)``, or a record stamped now
but scheduled before the FIFO head), so it dispatches exactly the stream
a single heap would: the same records, keys and count.  The contract
with the code outside the loop: whenever a run entry point returns,
normally or by exception, the heap again holds every pending record,
because the loop's ``finally`` puts the FIFO and the lane tails back
(:meth:`Simulator._restore`).  After a run, ``_sequence -
len(_calendar)`` is therefore the number of records dispatched.
Records scheduled for the current instant *between* runs wait on the
FIFO until the next run; :meth:`Simulator.pending` lists every pending
record, wherever it waits.

The record that ends a wait resumes the waiting process itself, with no
bookkeeping frame in between.  A process that yields a pending event is
stored in the event's waiter list as the :class:`Process` object, not as
a bound method, and the loop processes an event record in place: it
runs the waiters in registration order, resuming each process directly
and calling any other callback (the ``AnyOf``/``AllOf`` children, plain
``add_callback`` callables) with the event.  A failure raised into a
live waiting process is defused; a failure no waiter takes is raised at
the end of the run.  A process that yields an event already
processed gets one call1 record at the current instant, the slot a late
``add_callback`` takes.  A release record calls the resource's
``release()`` from the loop and then resumes its process.

One loop, :meth:`Simulator._drain`, dispatches every record.  The run
entry points differ only in where they stop, so each one hands the loop
a *strict* horizon — ``math.inf`` for an unbounded run, the float just
above an inclusive ``until`` — plus a process whose completion also
stops it, and sets the clock itself afterwards.  Only heap records can
reach the horizon: FIFO records are due now, before it.  The loop pops
first and compares afterwards, pushing the one overshooting record
back: keys are unique, so the push-back changes no later pop order, and
a drain pays it once, whereas peeking at ``calendar[0]`` before every
pop costs an index per record.  The per-record observer (the
``recorder`` slot, chained behind the sanitizer's hook when the ``san``
slot is filled) is looked up once per drain.

A resource hold (:meth:`repro.sim.resources.Resource.use`) costs its
calendar records and nothing more: no generator, no gate
:class:`Event`.  An uncontended ``use(d)`` does the acquire accounting
at once and pushes one *release* record (kind 4) in the ``(when, seq)``
slot ``hold(d)`` takes; its target is the process it resumes, so a
per-record observer sees which process a hold ends, and dispatching it
calls the resource's ``release()`` and then resumes the process.  A
contended acquirer is queued on the resource itself, and the release
that frees its unit pushes one *grant* record (kind 1) at the current
instant: exactly the slot that triggering the acquirer's gate event
took, so the firing order and every simulated output are those of the
gate-based hand-off.

That makes ``use`` an *eager call*, like ``Resource.acquire``, the
layers' ``_charge`` helpers, ``BlockCache.read``/``read_range``/
``write``/``write_range`` and the helpers that usually finish at once
(``Ext3Fs._dirty_inode``/``_update_atime``, ``NfsServer._invalidate``):
a plain method that acts when it is called and returns what the caller
must ``yield from`` — an empty tuple when there is nothing to wait for,
otherwise the hold sentinel or a generator.  Call sites keep the
coroutine spelling ``yield from x.use(d)``; the result must never be
dropped (simlint P203), and the call must never be handed to
:meth:`Simulator.spawn`, which would do its work at spawn time instead
of at the new process's first resume (wrap it in a small generator
instead).  ``Store.park`` is the eager form of a blocking get: ``item =
yield store.park()`` parks the running process, and the ``put`` that
feeds it unparks it with the item, so the RPC dispatcher takes each
message from its inbox without a ``Store.get`` generator per message
(the *eager inbox hand-off*).

A frame on the path from a dispatched record to its work should do work,
not only forward: the profiled calls per record
(``benchmarks/call_count.py``) count every such frame.  So a value
derived from constructor arguments that never change is an attribute
set at construction, not a property
(``Message.size``, ``BlockCache.dirty_limit``, the NFS client's
write-back bounds): a property is a Python call at every read.  For the
same reason ``Process.__init__`` sets the event fields itself, as
``Timeout`` does, and the caches keep their LRU order in an
``OrderedDict`` they touch directly.

Instruments
-----------
The simulator is the one attachment point for the opt-in instruments:
its ``tracer``, ``telemetry``, ``san`` and ``fault`` slots are ``None``
unless a run attaches one (see
:class:`repro.core.comparison.StorageStack`), and each instrument
attaches through its slot alone: there is one kernel class for every
run.  Every component already holds the simulator, so a hook site reads
``x = self.sim.<slot>`` and guards with ``if x is not None:`` (simlint
O301).  Instruments observe and never schedule on the hook path, so
attaching one leaves the event sequence unchanged; the fault injector
is the exception by design, and the only way a message is lost.

The fifth slot, ``recorder``, is the kernel's own hook: the *per-record
observer*, any object with a ``note_event(record)`` method, which the
dispatch loop calls once per calendar record.  It is ``None`` unless a
harness sets it; no component reads it.  The sanitizer in the ``san``
slot takes every record the same way, through its own ``note_event``,
called just before the recorder's (:meth:`Simulator._observer`).

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(2.5)
...     return sim.now
>>> proc = sim.spawn(hello(sim))
>>> sim.run()
>>> proc.value
2.5
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from itertools import islice
from typing import (Any, Callable, Deque, Dict, Generator, Iterable, List,
                    Optional, Tuple)

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "Simulator",
]

# Calendar record kinds (index 2 of each record), in the order the run
# loop tests them.  An event record runs the event's waiters (a waiting
# Process is resumed directly, any other callback is called).  A release
# record ends a resource hold: its payload is the Resource, whose
# release() does the accounting before the loop resumes the target
# process.  Kind 3 is retired (it threw into a process); the other kinds
# keep their numbers, so recorded (when, seq, kind) streams keep their
# meaning.  An event record's payload is None, except on a lane timer
# (Simulator.lane_timeout), where it is the timer's lane.
_KIND_EVENT = 0    # target: Event      -> run target's waiters
_KIND_CALL1 = 1    # target: callable   -> target(payload)
_KIND_RESUME = 2   # target: Process    -> target._resume(payload, None)
_KIND_RELEASE = 4  # target: Process    -> payload.release(); resume target

# Sentinel yielded by Simulator.hold(): the resume record is already on
# the calendar, so Process._resume has nothing to subscribe to.
_HOLD = object()


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. running a finished simulator)."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* at most once, either with a value
    (:meth:`trigger`) or with an exception (:meth:`fail`).  Processes that
    yield a triggered event resume immediately (on the next kernel step);
    processes that yield a pending event resume when it triggers.

    The waiters, in registration order, are callbacks and waiting
    processes: a process that yields a pending event is stored as itself,
    and the run loop resumes it when the event is processed.
    """

    __slots__ = ("sim", "triggered", "ok", "value", "_callbacks", "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.triggered = False
        self.ok: Optional[bool] = None
        self.value: Any = None
        # Callbacks and waiting Process objects; None once processed.
        self._callbacks: List[Any] = []
        # Set to True once a failure has been delivered to at least one
        # waiter (or defused explicitly); undelivered failures raise at the
        # end of the run so errors never pass silently.
        self.defused = False

    # -- triggering ---------------------------------------------------------

    def trigger(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = True
        self.value = value
        sim = self.sim
        sim._sequence = seq = sim._sequence + 1
        sim._fifo.append((sim.now, seq, _KIND_EVENT, self, None))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Mark the event failed; waiters receive ``exc``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self.ok = False
        self.value = exc
        sim = self.sim
        sim._sequence = seq = sim._sequence + 1
        sim._fifo.append((sim.now, seq, _KIND_EVENT, self, None))
        return self

    # -- waiting ------------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; runs when the event is processed.

        If the event has already been processed the callback is scheduled
        for the current instant (as a flat calendar record — no closure is
        allocated for this late-waiter hot path).
        """
        if self._callbacks is None:  # already processed
            sim = self.sim
            sim._sequence = seq = sim._sequence + 1
            sim._fifo.append((sim.now, seq, _KIND_CALL1, callback, self))
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self.triggered else "pending"
        return "<%s %s at t=%s>" % (type(self).__name__, state, self.sim.now)


# The stop process of drains that stop only at their horizon or an empty
# calendar: nothing ever triggers it.
_NEVER = Event(None)


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # NaN too
            raise ValueError("negative delay: %r" % (delay,))
        self.sim = sim
        self.triggered = True
        self.ok = True
        self.value = value
        self._callbacks = []
        self.defused = False
        self.delay = delay
        sim._sequence = seq = sim._sequence + 1
        heappush(sim._calendar, (sim.now + delay, seq, _KIND_EVENT, self, None))


class Process(Event):
    """A running coroutine; also an event that triggers on completion."""

    # ``trace_parent`` is not set by the kernel itself: spawners that fan
    # work out across processes (RAID, write-back) attach it so the tracer
    # can seed span parentage (see repro.obs.tracer).
    __slots__ = ("name", "_generator", "_waiting_on", "trace_parent")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator, got %r" % (generator,))
        # Event's fields, set here as Timeout sets them: one spawn per
        # process makes the Event.__init__ frame a measurable cost.
        self.sim = sim
        self.triggered = False
        self.ok = None
        self.value = None
        self._callbacks = []
        self.defused = False
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        sim._sequence = seq = sim._sequence + 1
        sim._fifo.append((sim.now, seq, _KIND_RESUME, self, None))

    # -- internal stepping ---------------------------------------------------

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        # Expose the running process (observability: span parenting keys
        # off the process whose frame is currently executing).
        sim = self.sim
        previous = sim._active_process
        sim._active_process = self
        try:
            if exc is None:
                target = self._generator.send(value)
            else:
                target = self._generator.throw(exc)
        except StopIteration as stop:
            sim._active_process = previous
            self.trigger(stop.value)
            return
        except BaseException as error:
            sim._active_process = previous
            self.fail(error)
            return
        sim._active_process = previous
        if target is _HOLD:
            # hold() already pushed this process's resume record; there is
            # no event object to subscribe to.
            return
        if not isinstance(target, Event):
            self.fail(
                TypeError(
                    "process %r yielded %r; processes must yield Event "
                    "objects (use `yield from` for sub-coroutines)"
                    % (self.name, target)
                )
            )
            return
        self._waiting_on = target
        waiters = target._callbacks
        if waiters is None:
            # Already processed: one call1 record resumes this process at
            # the current instant (Event.add_callback's late path).
            target.add_callback(self._on_event)
        else:
            waiters.append(self)

    def _on_event(self, event: Event) -> None:
        """Resume with the outcome of ``event``, processed before the wait."""
        if self.triggered:
            return
        if event.ok:
            self._resume(event.value, None)
        else:
            event.defused = True
            self._resume(None, event.value)


class AnyOf(Event):
    """Triggers when the first of ``events`` triggers.

    The value is ``(event, value)`` for the first event to fire.  Failures
    of the winning event propagate; failures of losers are defused.

    Once fired, the combinator lets go of the losers still pending: it
    takes its callback off each one's waiter list and defuses it, which
    is all the callback would have done when the loser fired.  A fired
    ``AnyOf`` keeps its ``events`` and its value, and no pending loser
    keeps it: an answered call's retransmission timer no longer holds the
    combinator, the reply event and the reply for the rest of its delay.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            # A duplicate child, or one processed before construction
            # whose late callback record comes after the firing.
            if event.ok is False:
                event.defused = True
            return
        if event.ok:
            self.trigger((event, event.value))
        else:
            event.defused = True
            self.fail(event.value)
        # Let go of the pending losers.  An index loop and a del, not
        # list.remove: no call per loser.
        on_child = self._on_child
        for child in self.events:
            waiters = child._callbacks
            if waiters is not None:
                child.defused = True
                index = 0
                for waiter in waiters:
                    if waiter == on_child:
                        del waiters[index]
                        break
                    index += 1


class AllOf(Event):
    """Triggers when every one of ``events`` has triggered successfully.

    The value is the list of child values in construction order.  The first
    child failure fails the combinator, which then lets go of the children
    still pending as a fired :class:`AnyOf` does: it takes its callback
    off their waiter lists and defuses them.  A fired ``AllOf`` keeps its
    ``events`` and its value (or failure); a successful one has no
    pending child left, and a failed one is held by none.
    """

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.trigger([])
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if event.ok is False:
                event.defused = True
            return
        if event.ok is False:
            event.defused = True
            self.fail(event.value)
            # Let go of the pending children, as AnyOf._on_child does.
            on_child = self._on_child
            for child in self.events:
                waiters = child._callbacks
                if waiters is not None:
                    child.defused = True
                    index = 0
                    for waiter in waiters:
                        if waiter == on_child:
                            del waiters[index]
                            break
                        index += 1
            return
        self._pending -= 1
        if self._pending == 0:
            self.trigger([child.value for child in self.events])


class Simulator:
    """The event calendar, virtual clock, and process spawner."""

    __slots__ = ("now", "_calendar", "_fifo", "_lanes", "_sequence",
                 "_unhandled", "_active_process", "tracer", "telemetry",
                 "recorder", "san", "fault")

    def __init__(self):
        self.now: float = 0.0
        # The three structures of the calendar (see the module docstring):
        # the heap, the FIFO of records due at the current instant, and
        # the lanes of lane_timeout, keyed by delay.  Between runs the
        # heap holds every pending record but those scheduled for the
        # current instant since the last run returned.
        self._calendar: List[Tuple[float, int, int, Any, Any]] = []
        self._fifo: Deque[Tuple[float, int, int, Any, Any]] = deque()
        self._lanes: Dict[float, Deque[Tuple[float, int, int, Any, Any]]] = {}
        self._sequence = 0
        self._unhandled: List[Event] = []
        self._active_process: Optional["Process"] = None
        # The instruments (see the module docstring), None when off.
        self.tracer: Optional[Any] = None       # repro.obs.tracer.Tracer
        self.telemetry: Optional[Any] = None    # repro.obs.telemetry.Telemetry
        # The per-record observer, any object with ``note_event(record)``:
        # _drain looks up its observer once per call through _observer(),
        # which chains the sanitizer's hook ahead of it, so an observer
        # attached while a run is in progress takes effect at the next
        # run call.
        self.recorder: Optional[Any] = None
        self.san: Optional[Any] = None          # repro.check.simsan.SimSan
        self.fault: Optional[Any] = None        # repro.faults.FaultInjector

    # -- public API -----------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def lane_timeout(self, delay: float, value: Any = None) -> Timeout:
        """A :meth:`timeout` for a delay that is armed again and again.

        The timer is the :class:`Timeout` that ``timeout(delay, value)``
        would create, in the same ``(when, seq)`` slot.  Timers armed
        with one delay are created in ``(when, seq)`` order (the clock
        never moves back and float addition is monotone), so they wait in
        a FIFO lane per delay with only the lane's head on the calendar
        heap: a run that keeps many of them pending, such as the RPC
        retransmission timers that outlive their replies, keeps the heap
        shallow.  For one-off delays use :meth:`timeout`: each delay's
        lane lives as long as the simulator.
        """
        lane = self._lanes.get(delay)
        if lane is None:
            if not delay >= 0:  # NaN too
                raise ValueError("negative delay: %r" % (delay,))
            lane = self._lanes[delay] = deque()
        timer = Timeout.__new__(Timeout)
        timer.sim = self
        timer.triggered = True
        timer.ok = True
        timer.value = value
        timer._callbacks = []
        timer.defused = False
        timer.delay = delay
        self._sequence = seq = self._sequence + 1
        record = (self.now + delay, seq, _KIND_EVENT, timer, lane)
        lane.append(record)
        if len(lane) == 1:
            heappush(self._calendar, record)
        return timer

    def pending(self) -> List[Tuple[float, int, int, Any, Any]]:
        """The records not yet dispatched, in ``(when, seq)`` order.

        A fresh list of ``(when, seq, kind, target, payload)`` records
        from the heap, the FIFO and the lane tails; its length is the
        calendar depth, ``sim._sequence`` minus the records dispatched so
        far.  Records scheduled for the current instant outside a run
        wait on the FIFO until the next run, so read them here rather
        than on ``_calendar``.
        """
        records = list(self._calendar)
        records.extend(self._fifo)
        for lane in self._lanes.values():
            records.extend((when, seq, kind, timer, None)
                           for when, seq, kind, timer, _ in islice(lane, 1, None))
        records.sort()
        return records

    def hold(self, delay: float) -> Any:
        """Sleep the *currently running* process for ``delay``; no Event.

        The allocation-free fast path for the innermost service delays
        (disk transfers, think times): it pushes the process's resume
        record directly onto the calendar and returns a sentinel for the
        process to yield, skipping the Timeout object, its callback list,
        and the event-processing hop.  The record occupies the same
        ``(when, seq)`` slot a ``timeout(delay)`` created here would, so
        firing order is unchanged.

        Only valid ``yield``\\ ed immediately from code running inside a
        process; the returned sentinel is not an :class:`Event` and cannot
        be stored, combined with ``any_of``/``all_of``, or waited on by
        anyone else.
        """
        if not delay >= 0:  # NaN too
            raise ValueError("negative delay: %r" % (delay,))
        proc = self._active_process
        if proc is None:
            raise SimulationError("hold() outside a running process")
        self._sequence = seq = self._sequence + 1
        heappush(self._calendar,
                 (self.now + delay, seq, _KIND_RESUME, proc, None))
        return _HOLD

    def unpark(self, proc: "Process", value: Any = None) -> None:
        """Resume a parked process at the current instant with ``value``.

        A parked process yielded the hold sentinel with no record pending
        for it, having stashed itself where another party finds it
        (:meth:`repro.sim.resources.Store.park`); that party wakes it
        here.  The record occupies the same ``(when, seq)`` slot that
        triggering a wait event here would, so firing order matches the
        Event-based hand-off it replaces.
        """
        self._sequence = seq = self._sequence + 1
        self._fifo.append((self.now, seq, _KIND_RESUME, proc, value))

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Return an event that fires when the first of ``events`` does."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Return an event that fires when every one of ``events`` has."""
        return AllOf(self, events)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar empties or the clock reaches ``until``.

        ``until`` is inclusive: records stamped exactly ``until`` fire,
        later ones stay on the calendar, and the clock is left at
        ``until``.  An ``until`` before the current clock raises
        :class:`SimulationError`.
        """
        self._drain(self._horizon(until), _NEVER)
        if until is not None:
            self.now = until

    def run_process(self, generator: Generator, name: str = "",
                    until: Optional[float] = None) -> Any:
        """Spawn ``generator``, run to completion, and return its value.

        This is the main entry point used by workloads: it drives the whole
        simulation until the given process finishes (background processes
        may continue afterwards via :meth:`run`).

        With ``until`` set the run is additionally bounded by the clock,
        mirroring :meth:`run`: if the process has not finished when the
        clock reaches ``until``, the clock is left at ``until``, pending
        events stay on the calendar, and ``None`` is returned (the
        deadlock check only applies to unbounded runs).
        """
        horizon = self._horizon(until)
        proc = self.spawn(generator, name=name)
        self._drain(horizon, proc)
        if not proc.triggered:
            if until is not None:
                self.now = until
                return None
            raise SimulationError(
                "process %r deadlocked: calendar empty at t=%s" % (proc.name, self.now)
            )
        if proc.ok is False:
            proc.defused = True
            raise proc.value
        return proc.value

    # -- internal -------------------------------------------------------------

    def _schedule_call1(self, call: Callable[[Any], None], arg: Any,
                        delay: float = 0.0) -> None:
        """Schedule ``call(arg)`` without allocating a closure."""
        self._sequence = seq = self._sequence + 1
        heappush(self._calendar, (self.now + delay, seq, _KIND_CALL1, call, arg))

    def _horizon(self, until: Optional[float]) -> float:
        """The strict horizon equivalent to an inclusive ``until``."""
        if until is None:
            return math.inf
        if not until >= self.now:  # NaN too
            raise SimulationError(
                "run until %r is in the past (now=%r)" % (until, self.now))
        return math.nextafter(until, math.inf)

    def _observer(self) -> Optional[Callable[[Tuple[Any, ...]], None]]:
        """The per-record hook :meth:`_drain` calls, or ``None``: the
        sanitizer's ``note_event``, then the recorder's."""
        san = self.san
        recorder = self.recorder
        if san is None:
            return None if recorder is None else recorder.note_event
        check = san.note_event
        if recorder is None:
            return check
        note = recorder.note_event

        def check_then_note(record) -> None:
            check(record)
            note(record)
        return check_then_note

    def _drain(self, horizon: float, proc: Event) -> None:
        """The one dispatch loop behind every run entry point.

        Dispatches records in ``(when, seq)`` order until the calendar
        empties, ``proc`` triggers, or the next record is stamped at or
        after ``horizon`` (that record stays on the calendar).  The clock
        follows the dispatched records and never moves backwards; the
        observer sees each record after the clock update, before its
        target runs.  However it returns, the heap again holds every
        pending record (:meth:`_restore`).
        """
        calendar = self._calendar
        fifo = self._fifo
        pop = heappop
        push = heappush
        take = fifo.popleft
        process = Process
        observe = self._observer()
        try:
            while not proc.triggered:
                if fifo:
                    # Due now: the FIFO head, unless the heap holds an
                    # earlier record (a timeout(0), or one stamped now
                    # before the FIFO head was scheduled).
                    record = take()
                    if calendar and calendar[0] < record:
                        fifo.appendleft(record)
                        record = pop(calendar)
                    _, _, kind, target, payload = record
                elif calendar:
                    record = pop(calendar)
                    when, _, kind, target, payload = record
                    if when >= horizon:
                        push(calendar, record)
                        break
                    if when > self.now:
                        self.now = when
                else:
                    break
                if observe is not None:
                    observe(record)
                if kind == 0:
                    if payload is not None:
                        # A lane head: the lane's next timer takes its
                        # place on the heap.
                        payload.popleft()
                        if payload:
                            push(calendar, payload[0])
                    # Process the event: its waiters, in registration
                    # order, each resumed or called in place.
                    waiters = target._callbacks
                    target._callbacks = None
                    if target.ok:
                        for waiter in waiters:
                            if waiter.__class__ is process:
                                waiter._resume(target.value, None)
                            else:
                                waiter(target)
                    else:
                        self._deliver_failure(target, waiters)
                elif kind == 1:
                    target(payload)
                elif kind == 2:
                    target._resume(payload, None)
                else:
                    payload.release()
                    target._resume(None, None)
        finally:
            self._restore()
        self._raise_unhandled()

    def _deliver_failure(self, event: Event, waiters: List[Any]) -> None:
        """Process a failed ``event``: the failure path of :meth:`_drain`.

        A waiting process that is still alive defuses the failure and has
        it raised at its ``yield``; a callback is called with the event.
        A failure no waiter defused is raised at the end of the run.
        """
        for waiter in waiters:
            if waiter.__class__ is Process:
                if not waiter.triggered:
                    event.defused = True
                    waiter._resume(None, event.value)
            else:
                waiter(event)
        if not event.defused:
            self._unhandled.append(event)

    def _restore(self) -> None:
        """Put the FIFO and the lane tails back onto the heap.

        Code that counts the records dispatched by a run as ``_sequence
        - len(_calendar)`` relies on this.  A tail goes back as a plain
        event record (``None`` payload); the lane keeps its head, which
        is already on the heap and still advances the lane when it
        fires.
        """
        calendar = self._calendar
        fifo = self._fifo
        while fifo:
            heappush(calendar, fifo.popleft())
        for lane in self._lanes.values():
            while len(lane) > 1:
                when, seq, kind, timer, _ = lane.pop()
                heappush(calendar, (when, seq, kind, timer, None))

    def _raise_unhandled(self) -> None:
        if not self._unhandled:
            return
        # A failure recorded at processing time may have been handled
        # *afterwards* by a late waiter (Event.add_callback on an already-
        # processed event): the waiter defuses it, so it no longer counts
        # as unhandled.
        pending = [event for event in self._unhandled if not event.defused]
        self._unhandled = []
        if not pending:
            return
        event = pending[0]
        if isinstance(event.value, BaseException):
            raise event.value
        raise SimulationError("unhandled event failure: %r" % (event.value,))
