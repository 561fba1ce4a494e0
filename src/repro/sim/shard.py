"""Sharded event calendars: conservative parallel discrete-event runs.

The flat calendar in :mod:`repro.sim.kernel` is single-threaded by
design; one big multi-client topology therefore runs on one core no
matter how many the host has.  This module partitions a simulation into
*shards* — each shard owns a private :class:`~repro.sim.Simulator`
(clock + calendar) — and advances them with the classic conservative
synchronization trick (Chandy–Misra–Bryant with a global window): a
cross-shard message takes at least the **lookahead** (the minimum
cross-shard link latency) to arrive, so every shard can safely execute
all events strictly below ``T_min + lookahead``, where ``T_min`` is the
earliest pending event anywhere.  Shards only synchronize at window
boundaries, where collected cross-shard messages are routed.

Determinism contract
--------------------
A sharded run is a pure function of its configuration:

* within a window each shard is the ordinary sequential kernel;
* collected cross-shard messages are injected in sorted
  ``(when, src_shard, src_seq)`` order, so destination-side ``seq``
  assignment — and therefore the equal-``when`` tie-break — is
  identical no matter which executor ran the window or how many
  workers it used (the ``sequential`` and ``fork`` executors produce
  the same event sequence);
* with one shard there is no cross-shard traffic at all and the run is
  byte-identical to the plain kernel (the windowed loop pops the same
  records in the same order; windows never schedule anything).

Processes, ports, and phases
----------------------------
Work enters a shard three ways, all registered **before** the executor
starts (the ``fork`` executor inherits the closures via ``fork()``;
nothing but :class:`ShardMessage` payloads and collected stats ever
crosses a pipe):

* :meth:`Shard.bind` names a *port* — a one-argument callable (an inbox
  ``put``, typically) that cross-shard messages target;
* :meth:`Shard.add_phase` registers a workload *factory* (a zero-arg
  callable returning a generator) under a phase name;
  :meth:`ShardedSimulator.run_phase` spawns the factories and drives
  windows until every phase process on every shard has finished;
* :meth:`Shard.set_collector` registers the end-of-run stats closure,
  fetched by :meth:`ShardedSimulator.collect` (this is how results
  leave a forked worker).

The lookahead must be positive: a zero-latency cross-shard link gives
the window zero width, so construction raises instead of deadlocking.
``Shard.post`` refuses cross-shard sends with ``delay < lookahead`` for
the same reason; co-located sends (``dst == self``) may use any delay.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from .kernel import Process, SimulationError, Simulator

__all__ = [
    "ShardMessage",
    "Shard",
    "ShardedSimulator",
    "EXECUTORS",
    "default_parallel_executor",
]

EXECUTORS = ("sequential", "fork")


def default_parallel_executor() -> str:
    """``"fork"`` where the platform offers it (POSIX), else ``"sequential"``."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "sequential"


class ShardMessage:
    """One cross-shard delivery: call port ``port`` with ``payload`` at
    ``when`` on shard ``dst_shard``.

    ``(when, src_shard, src_seq)`` is the global injection sort key;
    ``sent`` (the sender's clock at post time) exists so the S407
    causality sanitizer can verify ``when - sent >= lookahead``.
    """

    __slots__ = ("when", "sent", "src_shard", "src_seq", "dst_shard",
                 "port", "payload")

    def __init__(self, when: float, sent: float, src_shard: int,
                 src_seq: int, dst_shard: int, port: str, payload: Any):
        self.when = when
        self.sent = sent
        self.src_shard = src_shard
        self.src_seq = src_seq
        self.dst_shard = dst_shard
        self.port = port
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return ("<ShardMessage %d->%d %s at t=%r>"
                % (self.src_shard, self.dst_shard, self.port, self.when))


def _message_key(message: ShardMessage) -> Tuple[float, int, int]:
    return (message.when, message.src_shard, message.src_seq)


class Shard:
    """One partition: a private simulator plus its cross-shard plumbing."""

    __slots__ = ("id", "nshards", "name", "sim", "lookahead", "ports",
                 "outbox", "_out_seq", "_phases", "_phase_procs",
                 "_collector")

    def __init__(self, shard_id: int, nshards: int, sim: Simulator,
                 lookahead: float, name: str = ""):
        self.id = shard_id
        self.nshards = nshards
        self.name = name or ("shard%d" % shard_id)
        self.sim = sim
        self.lookahead = lookahead
        self.ports: Dict[str, Callable[[Any], None]] = {}
        self.outbox: List[ShardMessage] = []
        self._out_seq = 0
        self._phases: Dict[str, List[Tuple[Callable[[], Generator], str]]] = {}
        self._phase_procs: List[Process] = []
        self._collector: Optional[Callable[[], Any]] = None

    # -- configuration (before the executor starts) ---------------------------

    def bind(self, port: str, handler: Callable[[Any], None]) -> None:
        """Register the delivery callable messages to ``port`` invoke."""
        if port in self.ports:
            raise ValueError("port %r already bound on %s" % (port, self.name))
        self.ports[port] = handler

    def add_phase(self, phase: str, factory: Callable[[], Generator],
                  name: str = "") -> None:
        """Register a workload factory spawned when ``phase`` starts."""
        self._phases.setdefault(phase, []).append((factory, name))

    def set_collector(self, fn: Callable[[], Any]) -> None:
        """Register the end-of-run stats closure for :meth:`collect`."""
        self._collector = fn

    # -- the shard boundary ---------------------------------------------------

    def post(self, dst: int, port: str, payload: Any, delay: float) -> None:
        """Send ``payload`` to ``port`` on shard ``dst``, ``delay`` from now.

        Co-located sends schedule directly on this shard's calendar
        (same record a :meth:`~repro.sim.Simulator._schedule_call1`
        would make, so a one-shard run matches the unsharded kernel).
        Cross-shard sends must respect the lookahead — that is the
        safety condition the whole windowed scheme rests on — and land
        in the outbox for routing at the next window boundary.
        """
        if delay < 0:
            raise ValueError("negative delay: %r" % (delay,))
        if dst == self.id:
            self.sim._schedule_call1(self.ports[port], payload, delay)
            return
        if not 0 <= dst < self.nshards:
            raise ValueError("destination shard %r out of range [0, %d)"
                             % (dst, self.nshards))
        if delay < self.lookahead:
            raise SimulationError(
                "cross-shard post %s->%d with delay %r below the lookahead "
                "%r: conservative windows would be unsafe"
                % (self.name, dst, delay, self.lookahead))
        now = self.sim.now
        self._out_seq = seq = self._out_seq + 1
        self.outbox.append(ShardMessage(
            now + delay, now, self.id, seq, dst, port, payload))

    # -- window execution (called by executors, possibly in a worker) ---------

    def _step(self, phase: Optional[str], messages: List[ShardMessage],
              horizon: Optional[float],
              advance: Optional[float] = None
              ) -> Tuple[int, Optional[float], bool,
                         int, List[ShardMessage], List[Any]]:
        """Inject ``messages``, start ``phase`` if given, run one window.

        ``advance`` (used by the end-of-phase barrier) moves the clock
        forward to the phase watermark after the window, so every shard
        begins the next phase at the same instant.

        Returns ``(shard_id, next_when, phase_done, records, outbox,
        findings)`` — everything the driver needs, in picklable form.
        """
        sim = self.sim
        ports = self.ports
        for message in messages:
            sim.schedule_at(message.when, ports[message.port],
                            message.payload)
        if phase is not None:
            self._phase_procs = [
                sim.spawn(factory(), name=name or "%s@%s" % (phase, self.name))
                for factory, name in self._phases.get(phase, ())
            ]
        count = sim.run_window(horizon) if horizon is not None else 0
        if advance is not None and advance > sim.now:
            sim.now = advance
        done = True
        for proc in self._phase_procs:
            if not proc.triggered:
                done = False
            elif proc.ok is False:
                proc.defused = True
                raise proc.value
        outbox = self.outbox
        self.outbox = []
        findings: List[Any] = []
        order = getattr(sim, "order_findings", None)
        if order:
            findings = list(order)
            del order[:]
        return (self.id, sim.peek(), done, count, outbox, findings)

    def _collect(self) -> Tuple[int, Any]:
        return (self.id,
                self._collector() if self._collector is not None else None)


# -- executors ----------------------------------------------------------------
# Both drive the same Shard._step; they differ only in *where* it
# runs.  Responses always come back in shard-id order, so the driver's
# merge is executor-independent.


class _SequentialExecutor:
    """Shards advanced one after another, in shard order: the reference."""

    def __init__(self, shards: List[Shard], jobs: Optional[int] = None):
        self._shards = shards

    def step_all(self, items):
        return [shard._step(*item)
                for shard, item in zip(self._shards, items)]

    def collect(self):
        return [shard._collect() for shard in self._shards]

    def close(self) -> None:
        pass


def _fork_worker_main(shards: List[Shard], conn) -> None:
    """Worker loop: serve step/collect requests for this worker's shards.

    The worker was forked *after* shard configuration, so it inherited
    the generators, closures, and port handlers wholesale; only
    :class:`ShardMessage` lists, horizons, and collected stats cross
    the pipe.  A ``None`` request shuts the worker down.
    """
    table = {shard.id: shard for shard in shards}
    try:
        while True:
            request = conn.recv()
            if request is None:
                break
            if request[0] == "step":
                responses = [
                    table[shard_id]._step(phase, messages, horizon, advance)
                    for shard_id, phase, messages, horizon, advance
                    in request[1]]
                conn.send(("ok", responses))
            elif request[0] == "collect":
                conn.send(("ok", [shard._collect() for shard in shards]))
            else:  # pragma: no cover - protocol misuse
                raise ValueError("unknown request %r" % (request[0],))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


class _ForkExecutor:
    """Persistent forked workers: real multi-core parallelism.

    ``fork()`` (not spawn) on purpose: the children inherit the fully
    configured shards — live generators and all — so nothing
    unpicklable ever needs to cross a process boundary.  ``jobs`` caps
    the worker count; shards are assigned round-robin, and determinism
    does not depend on the assignment (each shard's window is
    self-contained).
    """

    def __init__(self, shards: List[Shard], jobs: Optional[int] = None):
        context = multiprocessing.get_context("fork")
        workers = len(shards) if jobs is None else max(1, min(jobs, len(shards)))
        self._groups: List[List[Shard]] = [[] for _ in range(workers)]
        for index, shard in enumerate(shards):
            self._groups[index % workers].append(shard)
        self._groups = [group for group in self._groups if group]
        self._conns = []
        self._procs = []
        for group in self._groups:
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(target=_fork_worker_main,
                                   args=(group, child_conn), daemon=True)
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def step_all(self, items):
        for conn, group in zip(self._conns, self._groups):
            conn.send(("step", [(shard.id,) + tuple(items[shard.id])
                                for shard in group]))
        by_id = {}
        for conn in self._conns:
            status, payload = conn.recv()
            if status != "ok":
                self.close()
                raise SimulationError("shard worker failed:\n" + payload)
            for response in payload:
                by_id[response[0]] = response
        return [by_id[index] for index in range(len(items))]

    def collect(self):
        for conn in self._conns:
            conn.send(("collect",))
        merged = []
        for conn in self._conns:
            status, payload = conn.recv()
            if status != "ok":
                self.close()
                raise SimulationError("shard worker failed:\n" + payload)
            merged.extend(payload)
        merged.sort(key=lambda pair: pair[0])
        return merged

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
        self._conns = []
        self._procs = []


_EXECUTOR_CLASSES = {
    "sequential": _SequentialExecutor,
    "fork": _ForkExecutor,
}


class ShardedSimulator:
    """Drive ``nshards`` partitioned simulators with conservative windows.

    The synchronization loop per window: route the previous window's
    cross-shard messages (sorted, so injection is deterministic),
    compute ``T_min`` = the earliest pending event on any calendar or
    in flight, run every shard up to ``horizon = T_min + lookahead``
    (strictly below — an arrival *on* the horizon belongs to the next
    window), and collect the new outboxes.  Safety: a message posted at
    send time ``s >= T_min`` arrives at ``s + delay >= T_min +
    lookahead = horizon``, so no shard can receive anything below the
    window it is executing.

    ``san=True`` builds every shard on a
    :class:`~repro.check.simsan.CheckedSimulator` (per-shard S403 order
    verification) and adds the S407 cross-shard causality check at
    routing time; findings accumulate in :attr:`findings`.
    """

    def __init__(self, nshards: int, lookahead: float, san: bool = False,
                 executor: str = "sequential", jobs: Optional[int] = None,
                 heartbeat: Optional[Any] = None):
        if nshards < 1:
            raise ValueError("nshards must be >= 1, got %r" % (nshards,))
        if not lookahead > 0:
            raise ValueError(
                "lookahead must be positive, got %r: a zero-latency "
                "cross-shard link leaves the conservative window no room "
                "to run ahead (the horizon would have zero width and the "
                "run would deadlock); model at least the link's "
                "propagation delay" % (lookahead,))
        if executor not in EXECUTORS:
            raise ValueError("unknown executor %r; one of %s"
                             % (executor, EXECUTORS))
        self.lookahead = lookahead
        self.executor_kind = executor
        self.jobs = jobs
        self.san = san
        self.heartbeat = heartbeat
        self._finding_cls = None
        if san:
            from ..check.simsan import CheckedSimulator, Finding
            self._finding_cls = Finding
            sim_factory: Callable[[], Simulator] = CheckedSimulator
        else:
            sim_factory = Simulator
        self.shards = [Shard(index, nshards, sim_factory(), lookahead)
                       for index in range(nshards)]
        self.findings: List[Any] = []
        self.rounds = 0
        self.records_by_shard = [0] * nshards
        self.cross_messages = 0
        # Highest window horizon ever used: no clock passes it, no later
        # phase may schedule below it (see run_phase's barrier).
        self._watermark = 0.0
        self._executor = None

    # -- configuration --------------------------------------------------------

    def shard(self, index: int) -> Shard:
        return self.shards[index]

    def add_phase(self, phase: str, shard: int,
                  factory: Callable[[], Generator], name: str = "") -> None:
        """Convenience: register a workload factory on one shard."""
        self.shards[shard].add_phase(phase, factory, name=name)

    # -- driving --------------------------------------------------------------

    def _ensure_executor(self):
        if self._executor is None:
            self._executor = _EXECUTOR_CLASSES[self.executor_kind](
                self.shards, self.jobs)
        return self._executor

    def run_phase(self, phase: str) -> None:
        """Spawn ``phase``'s factories and window until they all finish.

        Background activity (periodic timers, parked servers) keeps its
        calendar entries, exactly like
        :meth:`~repro.sim.Simulator.run_process` — termination is the
        phase processes finishing, not calendar exhaustion.

        Phases compose: the loop maintains a monotonic horizon
        *watermark* — no shard's clock ever passes it, and horizons
        never regress below it.  When the phase's processes finish, the
        watermark freezes; remaining windows are clamped to it (so
        stragglers below it settle safely), in-flight messages at or
        above it are parked on their destination calendars, and every
        clock is advanced *to* the watermark.  The next phase therefore
        starts from one globally consistent instant, which is what
        makes back-to-back phases (mount, then a workload, then a
        quiesce) safe: without the barrier a shard that idled through
        one phase would still sit at an earlier time and could be sent
        messages arriving in another shard's past.
        """
        executor = self._ensure_executor()
        nshards = len(self.shards)
        responses = executor.step_all([(phase, [], None, None)] * nshards)
        pending: List[ShardMessage] = []
        t_end: Optional[float] = None
        while True:
            for (shard_id, _next_when, _done, count, outbox,
                 findings) in responses:
                self.records_by_shard[shard_id] += count
                pending.extend(outbox)
                if findings:
                    self.findings.extend(findings)
            all_done = all(response[2] for response in responses)
            if all_done and t_end is None:
                # Freeze the phase's end time.  Every clock is <= the
                # watermark, and (by the cross-phase invariant) so is no
                # pending event below it except stragglers we still owe
                # a clamped window.
                t_end = self._watermark
            whens = [response[1] for response in responses
                     if response[1] is not None]
            whens.extend(message.when for message in pending)
            if not whens:
                if all_done:
                    break
                raise SimulationError(
                    "sharded phase %r deadlocked: every calendar is empty "
                    "and no messages are in flight" % (phase,))
            t_min = min(whens)
            if t_end is not None and t_min >= t_end:
                # Settled: nothing left below the watermark.  Park the
                # in-flight messages (they all arrive at or above it)
                # and advance every clock to the barrier.
                break
            horizon = t_min + self.lookahead
            if t_end is not None and horizon > t_end:
                horizon = t_end
            self._watermark = horizon
            pending.sort(key=_message_key)
            route: List[List[ShardMessage]] = [[] for _ in range(nshards)]
            for message in pending:
                if self._finding_cls is not None:
                    self._check_causality(message, t_min)
                route[message.dst_shard].append(message)
            self.cross_messages += len(pending)
            pending = []
            self.rounds += 1
            if self.heartbeat is not None:
                self.heartbeat.maybe_beat(
                    t_min, sum(self.records_by_shard),
                    sum(len(shard.sim._calendar) for shard in self.shards))
            responses = executor.step_all(
                [(None, route[index], horizon, None)
                 for index in range(nshards)])
        # End-of-phase barrier: flush stragglers, align the clocks.
        pending.sort(key=_message_key)
        route = [[] for _ in range(nshards)]
        for message in pending:
            if self._finding_cls is not None:
                self._check_causality(message, t_end)
            route[message.dst_shard].append(message)
        self.cross_messages += len(pending)
        self.rounds += 1
        responses = executor.step_all(
            [(None, route[index], None, t_end) for index in range(nshards)])
        for shard_id, _next_when, _done, count, outbox, findings in responses:
            self.records_by_shard[shard_id] += count
            if outbox:  # pragma: no cover - a horizon-less step runs nothing
                raise SimulationError("barrier step produced messages")
            if findings:
                self.findings.extend(findings)

    def _check_causality(self, message: ShardMessage, t_min: float) -> None:
        """S407: a routed message must respect lookahead and the window."""
        finding = self._finding_cls
        if message.when - message.sent < self.lookahead * (1.0 - 1e-9):
            self.findings.append(finding(
                "S407",
                "cross-shard message %d->%d arrives %r after sending — "
                "below the lookahead %r"
                % (message.src_shard, message.dst_shard,
                   message.when - message.sent, self.lookahead)))
        if message.when < t_min:
            self.findings.append(finding(
                "S407",
                "cross-shard message %d->%d arrives at %r, before the "
                "window floor %r — conservative safety violated"
                % (message.src_shard, message.dst_shard, message.when,
                   t_min)))

    # -- results --------------------------------------------------------------

    def collect(self) -> Dict[int, Any]:
        """Fetch every shard's collector result, keyed by shard id.

        With the fork executor this is the *only* way state comes back
        from the workers: the parent's shard copies never ran.
        """
        return dict(self._ensure_executor().collect())

    def report(self) -> Dict[str, Any]:
        """Synchronization statistics for ``BENCH_storm.json``."""
        total = sum(self.records_by_shard)
        return {
            "shards": len(self.shards),
            "executor": self.executor_kind,
            "rounds": self.rounds,
            "records_by_shard": list(self.records_by_shard),
            "total_records": total,
            "cross_messages": self.cross_messages,
            "cross_fraction": (self.cross_messages / total) if total else 0.0,
            # Machine-independent parallelism bound: with perfect overlap
            # the wall clock is set by the busiest shard.
            "ideal_speedup": (total / max(self.records_by_shard)
                              if total and max(self.records_by_shard)
                              else 1.0),
        }

    def close(self) -> None:
        """Shut the executor down (terminates forked workers)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "ShardedSimulator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
