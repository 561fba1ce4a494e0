"""Instrumentation counters.

The paper's primary metric is the *network message overhead*: the number of
protocol request messages exchanged for an operation (RPC calls for NFS,
SCSI command PDUs for iSCSI — the only reading consistent across all of the
paper's tables; see DESIGN.md §2).  Counters are therefore first-class
objects threaded through every layer, playing the role Ethereal/nfsstat
played in the original study.

:class:`MessageCounters` tallies requests, replies, bytes, and per-op
breakdowns — including *separate* per-op retransmission and reply-byte
tallies, so a spurious-retransmission storm (Section 4.6) is visible as
such rather than folded into the request mix.
:meth:`MessageCounters.snapshot` / :meth:`MessageCounters.delta` bracket an
experiment the way the authors bracketed a system call with packet
captures.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["MessageCounters", "CountersSnapshot"]


def _sub_dicts(left: Dict[str, int], right: Dict[str, int]) -> Dict[str, int]:
    out = Counter(left)
    out.subtract(right)
    return {op: n for op, n in out.items() if n}


@dataclass(frozen=True)
class CountersSnapshot:
    """An immutable point-in-time copy of a :class:`MessageCounters`."""

    requests: int
    replies: int
    retransmissions: int
    bytes_sent: int
    bytes_received: int
    by_op: Dict[str, int]
    retransmits_by_op: Dict[str, int] = field(default_factory=dict)
    reply_bytes_by_op: Dict[str, int] = field(default_factory=dict)

    @property
    def messages(self) -> int:
        """The paper's "number of messages": protocol requests."""
        return self.requests

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    def __sub__(self, other: "CountersSnapshot") -> "CountersSnapshot":
        return CountersSnapshot(
            requests=self.requests - other.requests,
            replies=self.replies - other.replies,
            retransmissions=self.retransmissions - other.retransmissions,
            bytes_sent=self.bytes_sent - other.bytes_sent,
            bytes_received=self.bytes_received - other.bytes_received,
            by_op=_sub_dicts(self.by_op, other.by_op),
            retransmits_by_op=_sub_dicts(
                self.retransmits_by_op, other.retransmits_by_op),
            reply_bytes_by_op=_sub_dicts(
                self.reply_bytes_by_op, other.reply_bytes_by_op),
        )


@dataclass
class MessageCounters:
    """Mutable per-stack protocol-traffic accounting."""

    requests: int = 0
    replies: int = 0
    retransmissions: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    by_op: Counter = field(default_factory=Counter)
    retransmits_by_op: Counter = field(default_factory=Counter)
    reply_bytes_by_op: Counter = field(default_factory=Counter)

    @property
    def messages(self) -> int:
        """The paper's "number of messages": protocol requests."""
        return self.requests

    def count_request(self, op: str, size: int) -> None:
        """Tally one outgoing protocol request of ``size`` bytes."""
        self.requests += 1
        self.bytes_sent += size
        self.by_op[op] += 1

    def count_reply(self, op: str, size: int) -> None:
        """Tally one incoming protocol reply of ``size`` bytes."""
        self.replies += 1
        self.bytes_received += size
        self.reply_bytes_by_op[op] += size

    def count_retransmission(self, op: str, size: int) -> None:
        """A re-sent request counts as a message and as a retransmission."""
        self.retransmissions += 1
        self.requests += 1
        self.bytes_sent += size
        self.by_op[op] += 1
        self.retransmits_by_op[op] += 1

    def snapshot(self) -> CountersSnapshot:
        """Return an immutable copy of the current counter values."""
        return CountersSnapshot(
            requests=self.requests,
            replies=self.replies,
            retransmissions=self.retransmissions,
            bytes_sent=self.bytes_sent,
            bytes_received=self.bytes_received,
            by_op=dict(self.by_op),
            retransmits_by_op=dict(self.retransmits_by_op),
            reply_bytes_by_op=dict(self.reply_bytes_by_op),
        )

    def delta(self, since: CountersSnapshot) -> CountersSnapshot:
        """Traffic accumulated since ``since`` was taken."""
        return self.snapshot() - since

    def reset(self) -> None:
        """Zero every counter."""
        self.requests = 0
        self.replies = 0
        self.retransmissions = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.by_op.clear()
        self.retransmits_by_op.clear()
        self.reply_bytes_by_op.clear()
