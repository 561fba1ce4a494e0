"""Protocol messages.

A :class:`Message` is the unit the paper's Ethereal traces counted: one
protocol-level request or reply (an RPC call/reply for NFS, a command or
response PDU for iSCSI).  Size accounting separates protocol header bytes
from payload bytes so byte totals track the paper's "Bytes" columns.

``Message`` is a plain ``__slots__`` class (not a dataclass): one instance
is allocated per protocol message, which makes it one of the hottest
allocation sites in a simulation run.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

__all__ = ["Message", "REQUEST", "REPLY"]

REQUEST = "request"
REPLY = "reply"

_xid_counter = itertools.count(1)


class Message:
    """One protocol message on the wire."""

    # ``size`` is an attribute set at construction, not a property: a
    # message's sizes never change, and every layer that charges or
    # counts a message reads it.
    __slots__ = ("op", "kind", "xid", "header_bytes", "payload_bytes",
                 "size", "body", "is_retransmission", "span_id", "cancelled")

    def __init__(
        self,
        op: str,
        kind: str = REQUEST,
        xid: Optional[int] = None,
        header_bytes: int = 128,
        payload_bytes: int = 0,
        body: Optional[Dict[str, Any]] = None,
        is_retransmission: bool = False,
        # Observability: id of the tracing span that sent this message (0
        # when untraced).  Lets the server parent its work to the client's
        # span.
        span_id: int = 0,
    ):
        self.op = op
        self.kind = kind
        self.xid = next(_xid_counter) if xid is None else xid
        self.header_bytes = header_bytes
        self.payload_bytes = payload_bytes
        self.size = header_bytes + payload_bytes
        self.body = {} if body is None else body
        self.is_retransmission = is_retransmission
        self.span_id = span_id
        # Set when the connection carrying an in-flight message is torn
        # down (RPC reset): the receiver discards it on arrival, exactly
        # as a TCP teardown loses undelivered bytes.
        self.cancelled = False

    def make_reply(self, payload_bytes: int = 0, **body: Any) -> "Message":
        """Build the reply paired with this request (same xid)."""
        return Message(
            op=self.op,
            kind=REPLY,
            xid=self.xid,
            header_bytes=self.header_bytes,
            payload_bytes=payload_bytes,
            body=body,
            span_id=self.span_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Message %s %s xid=%d %dB>" % (self.kind, self.op, self.xid, self.size)
