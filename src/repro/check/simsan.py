"""simsan: opt-in runtime sanitizers for the simulation kernel and stacks.

Where :mod:`repro.check.simlint` looks at code shapes, the sanitizers
watch a *run*: a :class:`SimSan` is attached as the simulator's ``san``
slot, the transports and RPC peers report to it through pure-arithmetic
hooks (the ``san = self.sim.san; if san is not None:`` guard every
instrument uses), the kernel's dispatch loop hands it every record it
dispatches (:meth:`SimSan.note_event`, ahead of the ``recorder``
observer), and it verifies conservation identities when the run ends.
The checks observe — they never schedule, delay, or reorder anything —
so a sanitized run's outputs are bit-identical to an unsanitized run
unless a check fires.

Checks and finding codes
------------------------
* **S401 deadlock** — at end of run, a live process still waiting on an
  untriggered event, or queued on a resource, with an empty calendar.
  (Processes parked in a :class:`~repro.sim.Store` are idle servers, not
  deadlocks.)
* **S402 resource leak** — a :class:`~repro.sim.Resource` with held
  slots or queued waiters at end of run.
* **S403 event-order violation** — the ``(when, seq)`` total order tied
  or went backwards, or a record fired in the past.
* **S404 message conservation** — a transport message was sent but
  neither delivered nor dropped with a fault verdict (the only way a
  message is lost); or an inbox held undispatched messages.
* **S405 reply-per-call** — an RPC request was consumed without being
  served, replayed, or accounted as cancelled/duplicate; or a call was
  still outstanding; or a reply arrived for a call never issued.
* **S406 iSCSI task-set conservation** — SCSI commands issued by the
  initiator that never completed.

Enable with ``StorageStack(..., san=True)`` / ``make_stack(...,
san=True)`` or ``--san`` on the workload-running CLI subcommands; then
``stack.check()`` (strict) raises :class:`SanitizerError` on findings.
Any other simulator is sanitized the same way, by filling its ``san``
slot before it first runs.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..sim.kernel import Process

__all__ = [
    "Finding",
    "SanitizerError",
    "TransportSan",
    "RpcSan",
    "SimSan",
]

# Stop accumulating order findings past this point: one corrupted
# calendar yields one finding per subsequent pop, and the first few tell
# the whole story.
_MAX_ORDER_FINDINGS = 32


class Finding:
    """One sanitizer finding: a stable code plus a human message."""

    __slots__ = ("code", "message")

    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message

    def __repr__(self) -> str:
        return "Finding(%s: %s)" % (self.code, self.message)

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, Finding)
                and (self.code, self.message) == (other.code, other.message))


class SanitizerError(AssertionError):
    """Raised by strict verification when any sanitizer check fired."""

    def __init__(self, findings: List[Finding]):
        self.findings = findings
        lines = ["%d sanitizer finding%s:" % (
            len(findings), "" if len(findings) == 1 else "s")]
        lines.extend("  [%s] %s" % (f.code, f.message) for f in findings)
        super().__init__("\n".join(lines))


class TransportSan:
    """Message-conservation counters for one :class:`DuplexTransport`."""

    __slots__ = ("sent", "fault_dropped", "fault_duplicated", "scheduled")

    def __init__(self):
        self.sent = 0
        self.fault_dropped = 0
        self.fault_duplicated = 0
        self.scheduled = 0


class RpcSan:
    """Reply-per-call accounting for one :class:`RpcPeer`."""

    __slots__ = ("name", "xids_issued", "requests", "cancelled",
                 "replayed", "dropped_in_progress", "served",
                 "orphan_replies")

    def __init__(self, name: str = "rpc"):
        self.name = name
        self.xids_issued = set()
        self.requests = 0
        self.cancelled = 0
        self.replayed = 0
        self.dropped_in_progress = 0
        self.served = 0
        self.orphan_replies: List[int] = []


class SimSan:
    """The per-stack sanitizer bundle: hooks, verification, findings.

    :class:`~repro.core.comparison.StorageStack` attaches one as the
    simulator's ``san`` slot when ``san=True``.  Every transport and RPC
    peer on that simulator reports to it, passing itself
    (``san.note_send(self, message)``), so one :class:`TransportSan` per
    transport and one :class:`RpcSan` per peer are kept here, in
    first-report order, and all of them are checked — every connection
    of an MC/S session included.  Every hook is a bare counter update.

    The kernel's dispatch loop calls :meth:`note_event` once per record,
    ahead of the ``recorder`` observer.  It checks the firing order and
    registers each process at the first record dispatched for it, the
    resume record its spawn pushed, so the registry lists processes in
    spawn order for the end-of-run deadlock check.  The contract: attach
    the sanitizer before the simulator first runs, or the processes
    already dispatched are never registered.
    """

    def __init__(self, stack):
        self.stack = stack
        self.sim = stack.sim
        self.transports: Dict[Any, TransportSan] = {}
        self.peers: Dict[Any, RpcSan] = {}
        # Filled by note_event: every process a record resumed, in
        # first-dispatch order, and the S403 findings.
        self.processes: Dict[Process, None] = {}
        self.order_findings: List[Finding] = []
        self._last_when = -1.0
        self._last_seq = -1

    # -- the kernel's per-record hook (Simulator._drain) ----------------------

    def note_event(self, record) -> None:
        # Called after the clock update: ``now`` is then ``max(now,
        # when)``, so ``when < now`` still holds exactly for a record
        # stamped in the past.
        when, seq, kind, target, _ = record
        if kind == 2:  # a resume record: its target is a process
            self.processes[target] = None
        if len(self.order_findings) < _MAX_ORDER_FINDINGS:
            now = self.sim.now
            if when < now:
                self.order_findings.append(Finding(
                    "S403",
                    "record (when=%r, seq=%d) fired in the past at t=%r"
                    % (when, seq, now)))
            if (when, seq) <= (self._last_when, self._last_seq):
                self.order_findings.append(Finding(
                    "S403",
                    "(when, seq) order tie/regression: (%r, %d) after "
                    "(%r, %d)" % (when, seq, self._last_when,
                                  self._last_seq)))
        self._last_when = when
        self._last_seq = seq

    # -- transport hooks (DuplexTransport._deliver) ---------------------------

    def _transport(self, transport) -> TransportSan:
        counters = self.transports.get(transport)
        if counters is None:
            counters = self.transports[transport] = TransportSan()
        return counters

    def note_send(self, transport, _message) -> None:
        self._transport(transport).sent += 1

    def note_fault_drop(self, transport, _message) -> None:
        self._transport(transport).fault_dropped += 1

    def note_fault_duplicate(self, transport, _message) -> None:
        self._transport(transport).fault_duplicated += 1

    def note_scheduled(self, transport, _message) -> None:
        self._transport(transport).scheduled += 1

    # -- RPC hooks (RpcPeer) --------------------------------------------------

    def _peer(self, peer) -> RpcSan:
        counters = self.peers.get(peer)
        if counters is None:
            counters = self.peers[peer] = RpcSan(peer.name)
        return counters

    # calling side
    def note_issued(self, peer, xid: int) -> None:
        self._peer(peer).xids_issued.add(xid)

    def note_orphan_reply(self, peer, xid: int) -> None:
        # A reply with no pending call: legitimate when the call was
        # retransmitted/cancelled (its xid was issued), a protocol bug
        # otherwise.  Classified in verify().
        self._peer(peer).orphan_replies.append(xid)

    # serving side
    def note_request(self, peer, _message) -> None:
        self._peer(peer).requests += 1

    def note_request_cancelled(self, peer, _message) -> None:
        self._peer(peer).cancelled += 1

    def note_request_replayed(self, peer, _message) -> None:
        self._peer(peer).replayed += 1

    def note_request_dropped_in_progress(self, peer, _message) -> None:
        self._peer(peer).dropped_in_progress += 1

    def note_request_served(self, peer, _message) -> None:
        self._peer(peer).served += 1

    # -- individual checks ----------------------------------------------------

    def _deadlock_findings(self) -> List[Finding]:
        findings: List[Finding] = []
        if self.sim.pending():
            return findings
        survivors = [proc for proc in self.processes if not proc.triggered]
        for proc in survivors:
            waiting_on = proc._waiting_on
            if waiting_on is None:
                continue  # parked in a Store: an idle server, by design
            findings.append(Finding(
                "S401",
                "process %r deadlocked waiting on %r with an empty "
                "calendar" % (proc.name, waiting_on)))
        # The registry only matters for survivors; drop finished entries
        # so long sanitized runs don't accumulate dead Process objects.
        self.processes = dict.fromkeys(survivors)
        return findings

    def _leak_findings(self) -> List[Finding]:
        findings: List[Finding] = []
        for resource in self.stack.resources():
            held = resource.capacity - resource.available
            if held:
                findings.append(Finding(
                    "S402",
                    "resource %r ends the run with %d held slot%s"
                    % (resource.name, held, "" if held == 1 else "s")))
            if resource.queue_length:
                findings.append(Finding(
                    "S402",
                    "resource %r ends the run with %d queued waiter%s"
                    % (resource.name, resource.queue_length,
                       "" if resource.queue_length == 1 else "s")))
        return findings

    def _message_findings(self) -> List[Finding]:
        findings: List[Finding] = []
        for transport, t in self.transports.items():
            if t.sent != t.fault_dropped + t.scheduled:
                findings.append(Finding(
                    "S404",
                    "transport conservation broken: %d sent != "
                    "%d fault-dropped + %d scheduled"
                    % (t.sent, t.fault_dropped, t.scheduled)))
            delivered = (transport.client.inbox.total_put
                         + transport.server.inbox.total_put)
            expected = t.scheduled + t.fault_duplicated
            if delivered != expected:
                findings.append(Finding(
                    "S404",
                    "%d message deliveries scheduled but %d arrived "
                    "(%d still in flight at end of run)"
                    % (expected, delivered, expected - delivered)))
            for endpoint in (transport.client, transport.server):
                backlog = len(endpoint.inbox)
                if backlog:
                    findings.append(Finding(
                        "S404",
                        "endpoint %r ends the run with %d undispatched "
                        "message%s in its inbox"
                        % (endpoint.name, backlog,
                           "" if backlog == 1 else "s")))
        return findings

    def _rpc_findings(self) -> List[Finding]:
        findings: List[Finding] = []
        for peer, san in self.peers.items():
            outstanding = len(peer._pending)
            if outstanding:
                findings.append(Finding(
                    "S405",
                    "%s ends the run with %d outstanding call%s "
                    "(xids %s)" % (
                        san.name, outstanding,
                        "" if outstanding == 1 else "s",
                        sorted(peer._pending))))
            accounted = (san.cancelled + san.replayed
                         + san.dropped_in_progress + san.served)
            if san.requests != accounted:
                findings.append(Finding(
                    "S405",
                    "%s consumed %d requests but accounted for %d "
                    "(served %d, replayed %d, in-progress drops %d, "
                    "cancelled %d)" % (
                        san.name, san.requests, accounted, san.served,
                        san.replayed, san.dropped_in_progress,
                        san.cancelled)))
            for xid in san.orphan_replies:
                if xid not in san.xids_issued:
                    findings.append(Finding(
                        "S405",
                        "%s received a reply for xid %d, which it "
                        "never issued" % (san.name, xid)))
        return findings

    def _iscsi_findings(self) -> List[Finding]:
        initiator = self.stack.initiator
        if initiator is None:
            return []
        issued = initiator.commands_issued
        completed = initiator.commands_completed
        if issued != completed:
            return [Finding(
                "S406",
                "iSCSI task set not conserved: %d commands issued, "
                "%d completed" % (issued, completed))]
        return []

    # -- public API -----------------------------------------------------------

    def findings(self) -> List[Finding]:
        """Collect every check's findings (does not raise)."""
        out: List[Finding] = []
        out.extend(self.order_findings)
        out.extend(self._deadlock_findings())
        out.extend(self._leak_findings())
        out.extend(self._message_findings())
        out.extend(self._rpc_findings())
        out.extend(self._iscsi_findings())
        return out

    def verify(self, strict: bool = True) -> List[Finding]:
        """Run every check; raise :class:`SanitizerError` when strict."""
        found = self.findings()
        if found and strict:
            raise SanitizerError(found)
        return found
