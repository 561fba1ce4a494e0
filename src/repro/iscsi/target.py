"""The iSCSI target: serves a RAID volume over the wire.

The target is deliberately thin — the paper's Table 9 hinges on exactly
this: a block request at the server traverses only the network layer, the
SCSI server layer, and the block driver, roughly half the processing path
of an NFS request (which additionally crosses the NFS server, VFS, the
filesystem, and the block layer).
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from ..core.params import CpuParams
from ..net.message import Message
from ..net.rpc import RpcPeer
from ..sim import Resource, Simulator
from ..storage.blockdev import BlockDevice
from . import scsi

__all__ = ["IscsiTarget"]


class IscsiTarget:
    """Command dispatch onto the backing volume."""

    def __init__(
        self,
        sim: Simulator,
        volume: BlockDevice,
        rpc: RpcPeer,
        cpu: Optional[Resource] = None,
        cpu_params: Optional[CpuParams] = None,
        name: str = "iscsi-target",
    ):
        self.sim = sim
        self.volume = volume
        self.rpc = rpc
        self.cpu = cpu
        self.cpu_params = cpu_params if cpu_params is not None else CpuParams()
        self.name = name
        self.commands_served = 0
        self.logins_served = 0
        rpc.set_handler(self.handle)
        # MC/S: every connection of the session dispatches into this one
        # target (shared volume, shared counters); connections[0] is the
        # leading connection that also serves LOGIN.
        self.connections = [rpc]

    def add_connection(self, rpc: RpcPeer) -> None:
        """Register an additional per-connection RPC peer (MC/S)."""
        rpc.set_handler(self.handle)
        self.connections.append(rpc)

    def handle(self, message: Message) -> Generator:
        """RPC handler: dispatch one SCSI command to the backing volume."""
        span = None
        tracer = self.sim.tracer
        if tracer is not None:
            span = tracer.begin_span(
                "scsi.serve:" + message.op, cat="scsi", track="server")
        try:
            self.commands_served += 1
            op = message.op
            body = message.body
            yield from self._charge(
                self.cpu_params.scsi_layer + self.cpu_params.driver_layer
            )
            if op == scsi.READ_10:
                start, count = body["lba"], body["count"]
                yield from self.volume.read(start, count)
                return count * self.volume.block_size, {"status": "good"}
            if op == scsi.WRITE_10:
                start, count = body["lba"], body["count"]
                yield from self.volume.write(start, count)
                return 8, {"status": "good"}
            if op == scsi.SYNCHRONIZE_CACHE:
                return 8, {"status": "good"}
            if op == scsi.REPORT_CAPACITY:
                return 16, {"status": "good", "nblocks": self.volume.nblocks}
            if op == scsi.LOGIN:
                # A fresh session: command-sequence state from the old one
                # (the duplicate-reply cache) is discarded.
                self.logins_served += 1
                self.rpc.session_reset()
                return 48, {"status": "good"}
            return 0, {"status": "check_condition", "op": op}
        finally:
            if span is not None:
                tracer.end_span(span)

    def _charge(self, cost: float) -> Iterable[Any]:
        """Charge target CPU; an eager call, ``yield from`` the result."""
        if self.cpu is not None and cost > 0:
            return self.cpu.use(cost)
        return ()
