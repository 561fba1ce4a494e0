"""The fault injector: drives a :class:`~repro.faults.plan.FaultPlan`.

The injector is built against the concrete pieces of one testbed — the
transport, the link, the RAID array, and (depending on stack kind) the
NFS server or the iSCSI initiator — and :meth:`FaultInjector.start`
spawns one small driver process per scheduled event.  Each driver sleeps
until its window opens, applies the fault, sleeps through the window,
and reverts it, so every fault is a pure function of the simulator clock
and the plan's seeded RNG: two runs of the same scenario are
byte-identical.

Message-level faults go through :meth:`filter_message`, which the
transport consults for every delivery *only when an injector is
attached* — an unfaulted stack executes the exact pre-existing event
sequence.  The reliable/unreliable transport distinction is honored
here: on a TCP-like transport a "lost" message becomes a sub-RPC-timer
stall (TCP's own recovery) and duplicates are suppressed, while on a
UDP-like transport losses and duplicates reach the RPC layer — the
paper's recovery-machinery contrast, now exercisable.

Every applied fault is visible to ``repro.obs``: windows become spans
(``cat="fault"``) and individual drops/delays/duplicates become instant
events, so traces show exactly where a run degraded.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Generator, List, Optional, Tuple

from .plan import (
    DiskFailure,
    DuplicateWindow,
    FaultPlan,
    LinkDegrade,
    LinkFlap,
    LossBurst,
    ReorderWindow,
    ServerCrash,
    SlowDisk,
)

__all__ = ["FaultInjector"]

# filter_message verdicts (module constants so tests can reference them)
DROP = "drop"
DELAY = "delay"
DUPLICATE = "duplicate"

# (verdict, extra_delay) as returned by FaultInjector.filter_message.
Verdict = Tuple[Optional[str], float]

_LOG_LIMIT = 1000

# Extra stall tacked onto deliveries held across a down window on a
# reliable transport: the first TCP retransmission after the link
# recovers, not an instantaneous resume.
_RECONNECT_STALL = 0.05


class FaultInjector:
    """Applies one plan's faults to one wired storage stack."""

    def __init__(
        self,
        sim: Any,
        plan: FaultPlan,
        transport: Any = None,
        link: Any = None,
        raid: Any = None,
        nfs_server: Any = None,
        initiator: Any = None,
    ):
        self.sim = sim
        self.plan = plan
        self.transport = transport
        self.link = link
        self.raid = raid
        self.nfs_server = nfs_server
        self.initiator = initiator
        self.rng = random.Random(plan.seed)
        self.started = False
        # Active-window state consulted by filter_message.
        self._down = 0
        self._down_until = 0.0
        self._loss: List[LossBurst] = []
        self._dup: List[DuplicateWindow] = []
        self._reorder: List[ReorderWindow] = []
        # Observability: bounded event log + unbounded counters.
        self.counts: Dict[str, int] = {}
        self.log: List[Tuple[float, str, str]] = []
        if initiator is not None:
            initiator.enable_fault_mode()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Spawn the per-event driver processes (idempotent)."""
        if self.started:
            return
        self.started = True
        for index, event in enumerate(self.plan.events):
            name = "fault.%d.%s" % (index, event.kind)
            self.sim.spawn(self._driver(event), name=name)

    def _driver(self, event: Any) -> Generator:
        yield self.sim.timeout(event.start)
        span = None
        tracer = self.sim.tracer
        if tracer is not None:
            span = tracer.begin_span(
                "fault:" + event.kind,
                cat="fault",
                track="wire",
                **{k: v for k, v in vars(event).items() if v is not None},
            )
        self._note("window." + event.kind, "begin")
        try:
            if isinstance(event, (LossBurst, DuplicateWindow, ReorderWindow)):
                yield from self._drive_message_window(event)
            elif isinstance(event, LinkFlap):
                yield from self._drive_flap(event)
            elif isinstance(event, LinkDegrade):
                yield from self._drive_degrade(event)
            elif isinstance(event, SlowDisk):
                yield from self._drive_slow_disk(event)
            elif isinstance(event, DiskFailure):
                yield from self._drive_disk_failure(event)
            elif isinstance(event, ServerCrash):
                yield from self._drive_crash(event)
            else:  # pragma: no cover - plan validation makes this unreachable
                raise TypeError("unknown fault event %r" % (event,))
        finally:
            self._note("window." + event.kind, "end")
            if span is not None:
                tracer.end_span(span)

    # -- event drivers ---------------------------------------------------------

    def _drive_message_window(self, event: Any) -> Generator:
        active = {
            LossBurst: self._loss,
            DuplicateWindow: self._dup,
            ReorderWindow: self._reorder,
        }[type(event)]
        active.append(event)
        try:
            yield self.sim.timeout(event.duration)
        finally:
            active.remove(event)

    def _drive_flap(self, event: LinkFlap) -> Generator:
        self._down += 1
        self._down_until = max(self._down_until, self.sim.now + event.duration)
        try:
            yield self.sim.timeout(event.duration)
        finally:
            self._down -= 1
        if self.initiator is not None:
            # The broken TCP connection surfaces as an iSCSI session
            # failure once the link is back: re-login, re-queue.
            self.initiator.session_drop()

    def _drive_degrade(self, event: LinkDegrade) -> Generator:
        if self.link is None:
            return
        self.link.degrade(
            bandwidth_factor=event.bandwidth_factor,
            extra_latency=event.extra_latency,
        )
        try:
            yield self.sim.timeout(event.duration)
        finally:
            self.link.restore()

    def _drive_slow_disk(self, event: SlowDisk) -> Generator:
        if self.raid is None:
            return
        disk = self.raid.disks[event.disk % len(self.raid.disks)]
        disk.slowdown = event.slowdown
        try:
            yield self.sim.timeout(event.duration)
        finally:
            disk.slowdown = 1.0

    def _drive_disk_failure(self, event: DiskFailure) -> Generator:
        if self.raid is None:
            return
        disk = event.disk % len(self.raid.disks)
        self.raid.fail_disk(disk)
        self._note("disk.fail", "disk%d" % disk)
        if event.rebuild_after is None:
            return
        yield self.sim.timeout(event.rebuild_after)
        yield from self.raid.repair_disk(disk, rebuild_blocks=event.rebuild_blocks)
        self._note("disk.rebuilt", "disk%d" % disk)

    def _drive_crash(self, event: ServerCrash) -> Generator:
        self._down += 1
        self._down_until = max(self._down_until, self.sim.now + event.duration)
        try:
            yield self.sim.timeout(event.duration)
        finally:
            self._down -= 1
        if self.nfs_server is not None:
            self.nfs_server.restart()
            self._note("server.restart", self.nfs_server.name)
        if self.initiator is not None:
            self.initiator.session_drop()
            self._note("session.drop", self.initiator.name)

    # -- the transport hook ----------------------------------------------------

    def filter_message(self, message: Any, forward: bool) -> Verdict:
        """Decide the fate of one message: ``(verdict, extra_delay)``.

        Called by :meth:`~repro.net.transport.DuplexTransport._deliver`
        for every message while an injector is attached.  Verdicts are
        ``DROP`` (never arrives), ``DELAY`` (arrives ``extra_delay``
        late), ``DUPLICATE`` (arrives, plus a copy ``extra_delay``
        later), or ``None`` (unaffected).
        """
        reliable = self.transport is not None and self.transport.reliable
        if self._down:
            if reliable and self.initiator is None:
                # NFS over TCP: the connection outlives a short outage —
                # TCP holds the bytes and retransmits once the link (or
                # the server's stack) is back.  Deliver at window end
                # plus a reconnect stall instead of dropping.
                extra = max(0.0, self._down_until - self.sim.now)
                self._note("msg.tcp-stall", message.op)
                return DELAY, extra + _RECONNECT_STALL
            # UDP traffic (and iSCSI sessions, which fail over to a
            # re-login) is simply lost while the wire is dark.
            self._note("msg.drop", message.op)
            return DROP, 0.0
        if self._loss:
            burst = max(self._loss, key=lambda b: b.loss_rate)
            if self.rng.random() < burst.loss_rate:
                if reliable:
                    # TCP repairs the loss below the RPC layer: the
                    # exchange survives but stalls for an RTO.
                    self._note("msg.tcp-stall", message.op)
                    return DELAY, burst.reliable_delay
                self._note("msg.drop", message.op)
                return DROP, 0.0
        if self._dup and not reliable:
            window = max(self._dup, key=lambda w: w.probability)
            if self.rng.random() < window.probability:
                self._note("msg.duplicate", message.op)
                return DUPLICATE, window.extra_delay
        if self._reorder:
            window = max(self._reorder, key=lambda w: w.probability)
            if self.rng.random() < window.probability:
                extra = self.rng.uniform(0.0, window.max_extra_delay)
                self._note("msg.reorder", message.op)
                return DELAY, extra
        return None, 0.0

    # -- observability ---------------------------------------------------------

    def _note(self, name: str, detail: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1
        if len(self.log) < _LOG_LIMIT:
            self.log.append((self.sim.now, name, detail))
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("fault." + name, cat="fault", track="wire", what=detail)

    def summary(self) -> Dict[str, Any]:
        """JSON-able digest for experiment cells and scenario tables."""
        return {"seed": self.plan.seed, "counts": dict(sorted(self.counts.items()))}
