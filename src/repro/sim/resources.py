"""Queued resources for the simulation kernel.

Two primitives cover everything the storage stacks need:

* :class:`Resource` — a counting semaphore with a FIFO wait queue.  Disks,
  CPUs, and the NFS client's bounded async-write pool are resources.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``; used
  for message inboxes and request queues.

Both also keep the accounting the experiments need, so utilization
figures fall out of the same objects that provide the contention.  Every
:class:`Resource` carries one :class:`~repro.sim.stats.ResourceStats`
(``resource.stats``), its only busy-time integral, with utilization,
wait-time histograms, and the queue-depth integral — the raw material
for the queueing analytics in :mod:`repro.obs.profile` and, through a
host CPU's window, for the CPU-utilization figures of Tables 9/10.

One-record holds
----------------
A hold costs its calendar records and nothing more.  :meth:`Resource.use`
is a plain method, not a coroutine: an uncontended call does the acquire
accounting at once, pushes the hold's end as one *release* record in the
slot ``sim.hold(duration)`` takes, and returns a one-element iterable of
the kernel's hold sentinel, so call sites still read ``yield from
cpu.use(d)``.  The kernel's run loop dispatches the release record
itself: it calls :meth:`Resource.release`, which does the release
accounting and grants the unit to the oldest waiter, and then resumes
the process.

A contended acquirer (in ``use`` or ``acquire``) is queued on the
resource itself.  The release that frees its unit pushes one *grant*
record at the current instant, which is exactly the ``(when, seq)`` slot
that triggering a per-waiter gate :class:`~repro.sim.kernel.Event` takes,
so the firing order is the one the gate-based hand-off produced.  The
grant does the wait-done accounting and then starts the hold (``use``)
or resumes the process (``acquire``).  ``ResourceStats`` is updated
once per transition (enqueue, enter service, leave service), with the
float operations of its ``_accumulate`` step, so its figures are
bit-identical to what separate per-call accounting hooks would produce.
Each transition runs in one frame, with the accumulate step written out
rather than called; :meth:`Resource.release` is the one implementation
of leaving service, and :meth:`~repro.sim.stats.LatencyHistogram.record`
of recording a wait.

Eager calls
-----------
``use`` and ``acquire`` act when they are called and return what the
caller must ``yield from``: an empty tuple when there is nothing to wait
for, the hold sentinel otherwise.  The result is never dropped (simlint
P203) and the call is never handed to ``sim.spawn``, which would do its
work at spawn time rather than at the new process's first resume.  A
hold cannot be cut short: the unit is released when the hold's record
fires.

:meth:`Store.park` is the eager half of a blocking get, for a process
that takes items in a loop: after :meth:`Store.get_nowait` found the
store empty, ``item = yield store.park()`` parks the process, and the
:meth:`Store.put` that feeds it unparks it with the item (one resume
record, the slot a triggered gate event would take).  The RPC dispatcher
takes its messages this way, with no ``Store.get`` generator per message.
The transitions read plain attributes only: as everywhere on the request
path (see the kernel's performance notes), a value derived from fixed
construction arguments is set once, not recomputed by a property; the
properties here (``queue_length``, ``ResourceStats.elapsed``) serve
reports.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Generator, Iterable, List, Optional, Tuple

from .kernel import (_HOLD, _KIND_CALL1, _KIND_RELEASE, Process,
                     SimulationError, Simulator)
from .stats import ResourceStats

__all__ = ["Resource", "Store"]

# The result of an eager call that suspends the process: ``yield from``
# hands the kernel's hold sentinel up to Process._resume, and the record
# that wakes the process is (or will be) on the calendar.
_WAIT = (_HOLD,)


class Resource:
    """A counting semaphore with FIFO queueing and utilization tracking."""

    __slots__ = ("sim", "capacity", "name", "available", "_waiters", "stats")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.available = capacity
        # Queued acquirers, oldest first: (process, arrival time, hold
        # duration, or None for acquire()).
        self._waiters: Deque[Tuple[Process, float, Optional[float]]] = deque()
        self.stats = ResourceStats(self)

    def __repr__(self) -> str:
        return "<Resource %r: %d/%d held, %d queued>" % (
            self.name, self.capacity - self.available, self.capacity,
            len(self._waiters))

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Iterable[Any]:
        """Take one unit of capacity; ``yield from`` the result.

        An eager call: a free unit is taken at once (the result is empty);
        otherwise the running process is queued and the result suspends
        it until a release grants it the unit.
        """
        if self.available > 0 and not self._waiters:
            self.available -= 1
            self._enter()
            return ()
        proc = self.sim._active_process
        if proc is None:
            raise SimulationError("acquire() outside a running process")
        self._enqueue(proc, None)
        return _WAIT

    def release(self) -> None:
        """Return one unit of capacity; grants it to the oldest waiter, if any.

        Releasing a unit that is not in service (a release without, or
        beyond, its acquires) raises :class:`SimulationError`.
        """
        stats = self.stats
        if stats._in_service <= 0:
            raise SimulationError(
                "resource %r released more than acquired" % (self.name,))
        sim = self.sim
        now = sim.now
        # _accumulate(), inlined: this runs once per charge.
        dt = now - stats._last_change
        if dt > 0.0:
            stats.busy_time += stats._in_service * dt
            stats._queue_integral += stats._queue_len * dt
            stats._last_change = now
        stats._in_service -= 1
        if self._waiters:
            # The grant record takes the (when, seq) slot that triggering
            # a per-waiter gate Event here would, on the kernel's FIFO of
            # records due now.
            sim._sequence = seq = sim._sequence + 1
            sim._fifo.append((now, seq, _KIND_CALL1, self._grant,
                              self._waiters.popleft()))
        else:
            self.available += 1

    def use(self, duration: float) -> Iterable[Any]:
        """Acquire, hold for ``duration``, release; ``yield from`` the result.

        An eager call (see the module docstring): it checks its arguments,
        takes a free unit or queues the running process at once, and
        returns the hold sentinel for the caller to ``yield from``.  The
        process resumes once the unit has been held for ``duration`` and
        released.  A negative ``duration`` raises :class:`ValueError` and
        a call outside a running process raises :class:`SimulationError`,
        both before anything is taken or queued.
        """
        if not duration >= 0:  # NaN too
            raise ValueError("negative delay: %r" % (duration,))
        sim = self.sim
        proc = sim._active_process
        if proc is None:
            raise SimulationError("use() outside a running process")
        if self.available > 0 and not self._waiters:
            self.available -= 1
            # _enter(), inlined: this runs once per charge.
            now = sim.now
            stats = self.stats
            dt = now - stats._last_change
            if dt > 0.0:
                stats.busy_time += stats._in_service * dt
                stats._queue_integral += stats._queue_len * dt
                stats._last_change = now
            stats._in_service += 1
            stats.acquisitions += 1
            sim._sequence = seq = sim._sequence + 1
            heappush(sim._calendar,
                     (now + duration, seq, _KIND_RELEASE, proc, self))
        else:
            self._enqueue(proc, duration)
        return _WAIT

    # -- transitions and records --------------------------------------------------
    # Each transition (_enqueue; _enter and its inlined copy in use; the
    # grant; release above) runs in one frame and updates ResourceStats
    # once, with the float operations of its _accumulate() step.

    def _enqueue(self, proc: Process, duration: Optional[float]) -> None:
        """Queue ``proc``; a later release grants it the unit."""
        now = self.sim.now
        stats = self.stats
        dt = now - stats._last_change
        if dt > 0.0:
            stats.busy_time += stats._in_service * dt
            stats._queue_integral += stats._queue_len * dt
            stats._last_change = now
        stats._queue_len += 1
        # Seen by the sanitizer's deadlock check (S401) if the run ends
        # with the process still queued.
        proc._waiting_on = self
        self._waiters.append((proc, now, duration))

    def _enter(self) -> None:
        """A free unit enters service at once (no wait)."""
        now = self.sim.now
        stats = self.stats
        dt = now - stats._last_change
        if dt > 0.0:
            stats.busy_time += stats._in_service * dt
            stats._queue_integral += stats._queue_len * dt
            stats._last_change = now
        stats._in_service += 1
        stats.acquisitions += 1

    def _grant(self, waiter: Tuple[Process, float, Optional[float]]) -> None:
        """The grant record: ``waiter`` takes the unit a release handed it.

        The unit leaves the queue and enters service after the waiter's
        wait, then the hold starts (``use``) or the process resumes
        (``acquire``).  The wait is counted from the arrival or from the
        start of the statistics window, whichever is later, so a waiter
        queued across ``stats.reset_window()`` (or handed its unit at the
        reset instant) counts only its wait inside the window.
        """
        proc, arrived, duration = waiter
        sim = self.sim
        now = sim.now
        stats = self.stats
        start = stats.window_start
        wait = now - (arrived if arrived > start else start)
        dt = now - stats._last_change
        if dt > 0.0:
            stats.busy_time += stats._in_service * dt
            stats._queue_integral += stats._queue_len * dt
            stats._last_change = now
        stats._queue_len -= 1
        stats._in_service += 1
        stats.acquisitions += 1
        if wait > 0.0:
            stats.total_wait += wait
            stats.contended += 1
            if wait > stats.max_wait:
                stats.max_wait = wait
            stats.wait_hist.record(wait)
        if duration is None:
            proc._resume(None, None)
        else:
            sim._sequence = seq = sim._sequence + 1
            heappush(sim._calendar,
                     (now + duration, seq, _KIND_RELEASE, proc, self))


class Store:
    """An unbounded FIFO with blocking ``get`` (message inbox)."""

    __slots__ = ("sim", "name", "_items", "_getters", "total_put")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        # Blocked getters park their Process directly (no gate Event):
        # put() hands the item straight to the oldest parked process.
        self._getters: Deque[Any] = deque()
        self.total_put = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest blocked getter."""
        self.total_put += 1
        if self._getters:
            self.sim.unpark(self._getters.popleft(), item)
        else:
            self._items.append(item)

    def get(self) -> Generator[Any, Any, Any]:
        """Coroutine: return the oldest item, blocking while empty."""
        if self._items:
            return self._items.popleft()
        item = yield self.park()
        return item

    def park(self) -> Any:
        """Queue the running process as a getter; ``yield`` the result.

        The blocking half of :meth:`get` as an eager call, for a process
        that takes items in a loop (the RPC dispatcher): after
        :meth:`get_nowait` found the store empty, ``message = yield
        store.park()`` suspends the process, and the :meth:`put` that
        feeds it resumes it with the item as the value of that ``yield``.
        No generator is created per item.  Outside a running process it
        raises :class:`SimulationError` before queueing anything.
        """
        proc = self.sim._active_process
        if proc is None:
            raise SimulationError("park() outside a running process")
        self._getters.append(proc)
        return _HOLD

    def get_nowait(self) -> Optional[Any]:
        """Return the oldest item or ``None`` without blocking."""
        if self._items:
            return self._items.popleft()
        return None

    def drain(self) -> List[Any]:
        """Remove and return all queued items."""
        items = list(self._items)
        self._items.clear()
        return items
