"""The iSCSI initiator: a remote volume presented as a local block device.

The initiator implements the :class:`~repro.storage.blockdev.BlockDevice`
interface, so the client-side ext3 mounts it exactly like a local disk —
the defining property of a block-access protocol (Figure 1b).

Each ``read``/``write`` call becomes one or more SCSI command exchanges,
split at ``max_coalesced_read/write`` (128 KB by default: the block-layer
merge limit that produced the paper's ~128 KB mean write request).  The
command PDU is the counted "message"; data and status ride the exchange.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from ..core.params import CpuParams, IscsiParams
from ..net.rpc import RpcPeer
from ..sim import Resource, Simulator
from ..storage.blockdev import BlockDevice
from . import scsi

__all__ = ["IscsiInitiator"]


class IscsiInitiator(BlockDevice):
    """Client-side session issuing SCSI commands over the transport."""

    def __init__(
        self,
        sim: Simulator,
        rpc: RpcPeer,
        nblocks: int,
        params: Optional[IscsiParams] = None,
        cpu: Optional[Resource] = None,
        cpu_params: Optional[CpuParams] = None,
        name: str = "iscsi-initiator",
        session=None,
    ):
        super().__init__(nblocks, name=name)
        self.sim = sim
        self.rpc = rpc
        # MC/S (repro.iscsi.mcs): when a multi-connection session is
        # attached, command exchanges route through its PDU scheduler and
        # in-order completion buffer; session=None keeps the original
        # direct rpc.call path (and event sequence) byte-identical.
        self.session = session
        self.params = params if params is not None else IscsiParams()
        self.cpu = cpu
        self.cpu_params = cpu_params if cpu_params is not None else CpuParams()
        self.commands_issued = 0
        # Completions mirror issues; the simsan task-set check (S406)
        # asserts the two agree at end of run.
        self.commands_completed = 0
        # Session-recovery machinery (repro.faults).  Dormant by default:
        # fault_mode=False keeps the original direct-call path (and event
        # sequence) for every unfaulted run.
        self.fault_mode = False
        self.relogin_delay = 0.02   # s; TCP reconnect + login round trip setup
        self.login_timeout = 0.5    # s; retry cadence while the wire is dark
        self._session_up = True
        self._drop_event = None     # fires when the current session dies
        self._up_event = None       # fires when the next login completes
        self.session_drops = 0
        self.logins = 0
        self.requeued_commands = 0

    # -- BlockDevice interface ------------------------------------------------

    def read(self, start: int, count: int = 1) -> Generator:
        """Coroutine: READ(10) exchange(s) covering ``count`` blocks."""
        self.check_range(start, count)
        limit = max(1, self.params.max_coalesced_read // self.block_size)
        at = start
        remaining = count
        while remaining > 0:
            chunk = min(remaining, limit)
            yield from self._command(
                scsi.READ_10, lba=at, count=chunk, payload=0
            )
            at += chunk
            remaining -= chunk
        self.stats.note_read(count)
        return None

    def write(self, start: int, count: int = 1) -> Generator:
        """Coroutine: WRITE(10) exchange(s) covering ``count`` blocks."""
        self.check_range(start, count)
        limit = max(1, self.params.max_coalesced_write // self.block_size)
        at = start
        remaining = count
        while remaining > 0:
            chunk = min(remaining, limit)
            yield from self._command(
                scsi.WRITE_10, lba=at, count=chunk,
                payload=chunk * self.block_size,
            )
            at += chunk
            remaining -= chunk
        self.stats.note_write(count)
        return None

    def synchronize_cache(self) -> Generator:
        """Coroutine: issue a SYNCHRONIZE CACHE command."""
        yield from self._command(scsi.SYNCHRONIZE_CACHE, lba=0, count=0, payload=0)
        return None

    # -- session recovery (repro.faults) --------------------------------------

    def enable_fault_mode(self) -> None:
        """Arm session-recovery: commands race the session-drop event."""
        if self.fault_mode:
            return
        self.fault_mode = True
        self._drop_event = self.sim.event()

    def session_drop(self) -> None:
        """The session died (link flap, target crash): re-login, re-queue.

        In-flight commands lose their race against the drop event and
        re-issue once the re-login completes; commands arriving while the
        session is down queue on the login-completion event.
        """
        if not self.fault_mode or not self._session_up:
            return
        self.session_drops += 1
        if self.session is not None:
            # MC/S session reinstatement: forfeit CmdSN ordering state so
            # post-relogin commands are not held for abandoned ones.
            self.session.reset()
        self._session_up = False
        self._up_event = self.sim.event()
        dropped = self._drop_event
        self._drop_event = self.sim.event()
        dropped.trigger(None)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("iscsi.session-drop", cat="fault",
                                track="client", dev=self.name)
        self.sim.spawn(self._relogin(), name=self.name + ".relogin")

    def _relogin(self) -> Generator:
        yield self.sim.timeout(self.relogin_delay)
        while True:
            attempt = self.sim.spawn(
                self.rpc.call(
                    scsi.LOGIN,
                    header_bytes=self.params.command_header_bytes,
                ),
                name=self.name + ".login",
            )
            winner, _value = yield self.sim.any_of(
                [attempt, self.sim.timeout(self.login_timeout)])
            if winner is attempt:
                break
            # No answer (wire still dark): try a fresh login exchange.
        self.logins += 1
        self._session_up = True
        self._up_event.trigger(None)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("iscsi.relogin", cat="fault",
                                track="client", dev=self.name)
        return None

    def _exchange(self, op: str, payload: int, **body) -> Generator:
        """One command exchange, re-queued across session drops."""
        header = self.params.command_header_bytes
        call = self.rpc.call if self.session is None else self.session.call
        if not self.fault_mode:
            reply = yield from call(
                op, payload_bytes=payload, header_bytes=header, **body)
            return reply
        while True:
            if not self._session_up:
                yield self._up_event
            attempt = self.sim.spawn(
                call(op, payload_bytes=payload, header_bytes=header, **body),
                name=self.name + "." + op,
            )
            winner, value = yield self.sim.any_of([attempt, self._drop_event])
            if winner is attempt:
                return value
            # Session died with the command in flight: wait for the
            # re-login, then issue it again (iSCSI command re-queue).
            self.requeued_commands += 1

    # -- internals ---------------------------------------------------------------

    def _command(self, op: str, lba: int, count: int, payload: int) -> Generator:
        self.commands_issued += 1
        span = None
        tracer = self.sim.tracer
        if tracer is not None:
            span = tracer.begin_span(
                "scsi:" + op, cat="scsi", track="client", lba=lba, count=count,
            )
        try:
            yield from self._charge(
                self.cpu_params.scsi_layer + self.cpu_params.driver_layer
            )
            yield from self._exchange(op, payload, lba=lba, count=count)
            self.commands_completed += 1
        finally:
            if span is not None:
                tracer.end_span(span)
        return None

    def _charge(self, cost: float) -> Iterable[Any]:
        """Charge initiator CPU; an eager call, ``yield from`` the result."""
        if self.cpu is not None and cost > 0:
            return self.cpu.use(cost)
        return ()
