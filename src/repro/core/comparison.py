"""The comparison harness: build a complete testbed for any stack kind.

:class:`StorageStack` assembles the whole simulated testbed of Figure 2 —
client host, server host, Gigabit link, RAID-5 array, and either

* ``"nfsv2" | "nfsv3" | "nfsv4"`` — ext3 at the *server*, exported over the
  chosen NFS generation (file-access protocol), or
* ``"iscsi"`` — ext3 at the *client* over an iSCSI initiator/target pair
  (block-access protocol), or
* ``"nfs-enhanced"`` — NFS v4 plus the Section-7 enhancements
  (strongly-consistent meta-data cache + directory delegation).

Whatever the kind, ``stack.client`` exposes the same syscall surface, so a
workload runs unmodified against every stack — the paper's methodology in
code.  Message/byte counting lives on the stack's transport; CPU accounting
on its two hosts.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Generator, Optional

from ..client.host import Host
from ..fs.ext3 import Ext3Fs
from ..net.link import Link
from ..net.rpc import RetransmitPolicy, RpcPeer
from ..net.transport import DuplexTransport
from ..sim import Simulator
from ..storage.raid import Raid5Volume
from .counters import CountersSnapshot, MessageCounters
from .params import NfsParams, TestbedParams

__all__ = ["StorageStack", "STACK_KINDS", "make_stack"]

STACK_KINDS = ("nfsv2", "nfsv3", "nfsv4", "iscsi", "nfs-enhanced")


# -- the wiring both testbeds share --------------------------------------------
# StorageStack (the paper's one-client testbed) and SharedNfsTestbed
# (repro.core.multiclient: several live clients on shared exports) build
# their machines, connections and protocol endpoints through the
# constructors below.  Callers pass placement (the host each side runs
# on, which carries its simulator and its CPU), names, and the
# values where the two topologies really differ; the constructors decide
# the rest once: CPU cost sums, retransmission, reliability, trace tracks.
#
# Ext3Fs, RpcPeer and NfsClient start simulator processes when built, so
# the order of these calls fixes the calendar ``seq`` of each process's
# first record: every caller keeps its construction order.
#
# Each protocol's modules are imported where its endpoints are built, and
# the instruments' where they are attached, so a stack loads only the
# layers its kind runs.


def _server_machine(sim: Simulator, params: TestbedParams, suffix: str = "",
                    exports: bool = True):
    """A server machine: host, RAID-5 array and, if it exports files, ext3.

    Returns ``(host, raid, fs)``; ``fs`` is ``None`` for a block server.
    """
    cpu = params.cpu
    host = Host(sim, cpu.server_cpus, "server" + suffix)
    raid = Raid5Volume(
        sim,
        raid_params=params.raid,
        disk_params=params.disk,
        cpu=host.cpu,
        parity_cpu_per_byte=cpu.raid_parity_per_byte,
        io_cpu=cpu.disk_io_issue,
        name="array" + suffix,
    )
    fs = None
    if exports:
        fs = Ext3Fs(
            sim,
            raid,
            cache_bytes=params.cache.server_cache_bytes,
            params=params.ext3,
            cpu=host.cpu,
            cpu_params=cpu,
            readahead_blocks=8,
            testbed=params,
            name="server%s-ext3" % suffix,
        )
    return host, raid, fs


def _transport(link: Link, counters: MessageCounters, protocol: str,
               params: TestbedParams, name: str) -> DuplexTransport:
    """One connection over ``link``: iSCSI always rides TCP, NFS rides
    its mount's transport (over UDP a fault plan can drop a message)."""
    return DuplexTransport(
        link.sim, link, counters=counters,
        reliable=protocol == "iscsi" or params.nfs.transport != "udp",
        name=name,
    )


def _peer_pair(protocol: str, transport: DuplexTransport, server_host: Host,
               client_host: Host, params: TestbedParams, names):
    """One connection's RPC peers, server side first.

    ``protocol`` (``"nfs"`` or ``"iscsi"``) and the side make each peer's
    role, and the role decides its transport endpoint, trace track and
    per-message CPU cost: the network stack, plus for NFS the Sun RPC
    layer and on the server the NFS layer (the SCSI layers charge per
    command).  The NFS client alone retransmits.  ``names`` is
    ``(server peer, client peer)``.
    """
    cpu = params.cpu
    nfs = params.nfs
    sides = (
        (server_host, transport.server, transport.send_from_server, "server"),
        (client_host, transport.client, transport.send_from_client, "client"),
    )
    peers = []
    for (host, endpoint, send, track), name in zip(sides, names):
        per_message = cpu.net_per_message
        retransmit = None
        if protocol == "nfs":
            per_message += cpu.rpc_layer
            if track == "server":
                per_message += cpu.nfs_server_layer
            else:
                retransmit = RetransmitPolicy(
                    timeout=nfs.rpc_timeout,
                    backoff=nfs.rpc_timeout_backoff,
                    max_retries=nfs.rpc_max_retries,
                    reset_connection=nfs.transport == "tcp",
                )
        peers.append(RpcPeer(
            host.sim, endpoint, send,
            cpu=host.cpu,
            per_message_cpu=per_message,
            per_byte_cpu=cpu.copy_per_byte,
            retransmit=retransmit,
            name=name,
            track=track,
        ))
    return peers


def _nfs_endpoints(transport: DuplexTransport, server_host: Host, fs: Ext3Fs,
                   client_host: Host, params: TestbedParams, names,
                   readahead_pages: int, state=None,
                   client_id: str = "client0"):
    """Export ``fs`` to one client over ``transport``.

    Returns ``(NfsServer, NfsClient)``.  ``names`` is ``(server peer,
    server, client peer, client)``; ``state`` is the delegation and
    cache state a server's frontends share (``None``: a fresh one).
    """
    from ..nfs.client import NfsClient
    from ..nfs.server import NfsServer

    server_rpc_name, server_name, client_rpc_name, client_name = names
    server_rpc, client_rpc = _peer_pair(
        "nfs", transport, server_host, client_host, params,
        (server_rpc_name, client_rpc_name))
    server = NfsServer(server_host.sim, fs, server_rpc, params=params.nfs,
                       cpu_params=params.cpu, state=state, name=server_name)
    client = NfsClient(
        client_host.sim, client_rpc, params=params.nfs,
        cache_params=params.cache, cpu_params=params.cpu,
        readahead_pages=readahead_pages, name=client_name,
        client_id=client_id,
    )
    return server, client


def _iscsi_endpoints(transport: DuplexTransport, server_host: Host,
                     raid: Raid5Volume, target, client_host: Host,
                     params: TestbedParams, names):
    """One iSCSI connection: ``(target, initiator peer)``.

    The first connection (``target=None``) builds the
    :class:`~repro.iscsi.target.IscsiTarget` over ``raid``; each further
    MC/S connection joins it.  ``names`` is ``(target peer, initiator
    peer)``.
    """
    from ..iscsi.target import IscsiTarget

    target_rpc, initiator_rpc = _peer_pair(
        "iscsi", transport, server_host, client_host, params, names)
    if target is None:
        target = IscsiTarget(server_host.sim, raid, target_rpc,
                             cpu=server_host.cpu, cpu_params=params.cpu)
    else:
        target.add_connection(target_rpc)
    return target, initiator_rpc


class StorageStack:
    """A fully wired client/server testbed for one protocol stack."""

    def __init__(self, kind: str, params: Optional[TestbedParams] = None,
                 trace: bool = False, fault_plan=None, san: bool = False,
                 telemetry: bool = False):
        if kind not in STACK_KINDS:
            raise ValueError("unknown stack kind %r; one of %s" % (kind, STACK_KINDS))
        self.kind = kind
        self.params = params if params is not None else TestbedParams()
        self.params = self._specialize_params(kind, self.params)

        self.sim = Simulator()
        self.client_host = Host(self.sim, self.params.cpu.client_cpus, "client")
        # An iSCSI target serves the raw array; an NFS server exports ext3.
        self.server_host, self.raid, self.fs = _server_machine(
            self.sim, self.params, exports=kind != "iscsi")
        self.link = Link(
            self.sim,
            rtt=self.params.network.rtt,
            bandwidth=self.params.network.bandwidth,
        )
        self.counters = MessageCounters()
        self.transport = _transport(
            self.link, self.counters,
            "iscsi" if kind == "iscsi" else "nfs", self.params, kind)
        # The other protocol's endpoints stay None.
        self.server = self.nfs_client = None
        self.target = self.initiator = self.session = None
        self.mcs_transports = []
        if kind == "iscsi":
            self._build_iscsi()
        else:
            self._build_nfs()
        self.raw_client = self.client
        # Instruments: each is built only on request and hangs off the
        # simulator slot of the same name, where every hook site of every
        # transport and RPC peer (MC/S connections included) finds it;
        # the stack keeps a handle to each, ``None`` when off.  They
        # observe and never schedule on the hook path, and telemetry's
        # probes are pure reads, so an instrumented run keeps the plain
        # run's event sequence and measured outputs.  The fault injector
        # acts: it is built only for a non-empty plan, and its clock
        # starts after the mount (make_stack).
        sim = self.sim
        self.tracer = None
        if trace:
            from ..obs.proxy import TracedClient
            from ..obs.tracer import Tracer
            self.tracer = sim.tracer = Tracer(sim)
            self.client = TracedClient(self.client, sim)
        self.telemetry = None
        if telemetry:
            from ..obs.telemetry import Telemetry
            self.telemetry = sim.telemetry = Telemetry(sim)
            self._register_telemetry()
            self.telemetry.start()
        self.fault_injector = None
        if fault_plan is not None and not fault_plan.is_empty:
            from ..faults.injector import FaultInjector
            self.fault_injector = sim.fault = FaultInjector(
                sim,
                fault_plan,
                transport=self.transport,
                link=self.link,
                raid=self.raid,
                nfs_server=self.server,
                initiator=self.initiator,
            )
        self.sanitizer = None
        if san:
            # Before the first run (the mount): the sanitizer registers
            # each process at its first dispatched record.
            from ..check.simsan import SimSan
            self.sanitizer = sim.san = SimSan(self)
        self.mounted = False

    # -- construction ----------------------------------------------------------------

    @staticmethod
    def _specialize_params(kind: str, params: TestbedParams) -> TestbedParams:
        """``params`` with ``nfs`` resolved for NFS stack kind ``kind``."""
        if kind == "iscsi":
            return params
        defaults = NfsParams.for_kind(kind)
        if params.nfs is None:
            return replace(params, nfs=defaults)
        if params.nfs.version != defaults.version:
            raise ValueError(
                "a %s stack runs NFS version %d, but its NfsParams has "
                "version %d" % (kind, defaults.version, params.nfs.version))
        return params

    def _build_iscsi(self) -> None:
        from ..fs.vfs import Vfs
        from ..iscsi.initiator import IscsiInitiator

        iscsi = self.params.iscsi
        if iscsi.connections < 1:
            raise ValueError("iscsi connections must be >= 1 (got %d)"
                             % (iscsi.connections,))
        # MC/S (repro.iscsi.mcs): extra TCP connections share the one
        # physical link (and the stack's message counters) but get their
        # own transport endpoints and RPC peers per side.  connections=1
        # builds nothing extra, keeping the original wiring (and every
        # committed output) byte-identical.
        initiator_rpcs = []
        for conn in range(iscsi.connections):
            transport, suffix = self.transport, ""
            if conn:
                transport = _transport(self.link, self.counters, "iscsi",
                                       self.params,
                                       "%s.mcs%d" % (self.kind, conn))
                self.mcs_transports.append(transport)
                suffix = ".c%d" % conn
            self.target, initiator_rpc = _iscsi_endpoints(
                transport, self.server_host, self.raid, self.target,
                self.client_host, self.params,
                names=("iscsi.target.rpc" + suffix,
                       "iscsi.initiator.rpc" + suffix))
            initiator_rpcs.append(initiator_rpc)
        if iscsi.connections > 1:
            from ..iscsi.mcs import McsSession
            self.session = McsSession(self.sim, initiator_rpcs,
                                      policy=iscsi.mcs_policy)
        cpu = self.params.cpu
        self.initiator = IscsiInitiator(
            self.sim, initiator_rpcs[0], nblocks=self.raid.nblocks,
            params=iscsi, cpu=self.client_host.cpu, cpu_params=cpu,
            session=self.session,
        )
        self.fs = Ext3Fs(
            self.sim,
            self.initiator,
            cache_bytes=self.params.cache.client_cache_bytes,
            params=self.params.ext3,
            cpu=self.client_host.cpu,
            cpu_params=cpu,
            max_coalesced_write=iscsi.max_coalesced_write,
            readahead_blocks=8,
            testbed=self.params,
            name="client-ext3",
            track="client",
        )
        self.client = Vfs(self.fs)

    def _build_nfs(self) -> None:
        self.server, self.nfs_client = _nfs_endpoints(
            self.transport, self.server_host, self.fs, self.client_host,
            self.params,
            names=("nfsd.rpc", "nfsd", "nfs.client.rpc", "nfs-client"),
            readahead_pages=4)
        self.client = self.nfs_client

    def _register_telemetry(self) -> None:
        """Register every tier of the testbed on the telemetry collector.

        No probe calls ``_accumulate()`` or any other mutator: a probe
        that advanced the busy-time accumulators would change the
        *order* of float additions, and the reported utilization figures
        would depend on whether telemetry was enabled.  Each probe
        recomputes the current value from the raw accounting fields
        instead.
        """
        telem = self.telemetry
        sim = self.sim

        def busy_probe(stats: Any, capacity: int):
            # The ResourceStats busy-time integral extended to `now`
            # without committing it.
            def probe() -> float:
                return (stats.busy_time + stats._in_service
                        * (sim.now - stats._last_change)) / capacity
            return probe

        def depth_probe(resource: Any):
            def probe() -> float:
                return float(resource.queue_length
                             + (resource.capacity - resource.available))
            return probe

        def counter_probe(stats: Any, field: str):
            def probe() -> float:
                return float(getattr(stats, field))
            return probe

        client_cpu = self.client_host.cpu
        server_cpu = self.server_host.cpu
        telem.add_series("client.cpu.util",
                         busy_probe(client_cpu.stats, client_cpu.capacity),
                         kind="cumulative", tag="util")
        telem.add_series("server.cpu.util",
                         busy_probe(server_cpu.stats, server_cpu.capacity),
                         kind="cumulative", tag="util")
        telem.add_series("net.link.MBps",
                         lambda: float(self.link.total_bytes),
                         kind="rate", tag="rate", scale=1e-6)
        telem.add_series("client.inbox.depth",
                         lambda: float(len(self.transport.client.inbox)),
                         kind="gauge", tag="queue")
        telem.add_series("server.inbox.depth",
                         lambda: float(len(self.transport.server.inbox)),
                         kind="gauge", tag="queue")
        for index, disk in enumerate(self.raid.disks):
            queue = disk.queue
            telem.add_series("server.disk%02d.queue" % index,
                             depth_probe(queue), kind="gauge", tag="queue")
            telem.add_series("server.disk%02d.util" % index,
                             busy_probe(queue.stats, queue.capacity),
                             kind="cumulative", tag="util")
        raid = self.raid
        telem.add_series(
            "server.raid.degraded_s",
            lambda: float(raid.degraded_reads + raid.degraded_writes
                          + raid.rebuild_writes),
            kind="cumulative", tag="rate")
        # Summed over every connection (an MC/S session has several).
        peers = self.rpc_peers()
        callers, servers = peers[0::2], peers[1::2]
        telem.add_series("client.rpc.calls_s",
                         lambda: float(sum(peer.calls_issued
                                           for peer in callers)),
                         kind="cumulative", tag="rate")
        telem.add_series("server.rpc.served_s",
                         lambda: float(sum(peer.calls_served
                                           for peer in servers)),
                         kind="cumulative", tag="rate")
        if self.kind == "iscsi":
            initiator = self.initiator
            telem.add_series(
                "client.iscsi.inflight",
                lambda: float(initiator.commands_issued
                              - initiator.commands_completed),
                kind="gauge", tag="queue")
            telem.add_series("client.cache.hits_s",
                             counter_probe(self.fs.cache.stats, "hits"),
                             kind="cumulative", tag="rate")
            telem.add_series("client.cache.misses_s",
                             counter_probe(self.fs.cache.stats, "misses"),
                             kind="cumulative", tag="rate")
            session = self.session
            if session is not None:
                # MC/S: per-connection PDU rates expose scheduler skew,
                # and the held gauge is the in-order completion buffer.
                for conn in range(session.nconnections):
                    telem.add_series(
                        "client.iscsi.conn%02d.pdus_s" % conn,
                        lambda conn=conn: float(
                            session.pdus_by_connection[conn]),
                        kind="cumulative", tag="rate")
                telem.add_series("client.iscsi.held",
                                 lambda: float(session.held_now),
                                 kind="gauge", tag="queue")
        else:
            telem.add_series("server.cache.hits_s",
                             counter_probe(self.fs.cache.stats, "hits"),
                             kind="cumulative", tag="rate")
            telem.add_series("server.cache.misses_s",
                             counter_probe(self.fs.cache.stats, "misses"),
                             kind="cumulative", tag="rate")
            pages = self.nfs_client._pages.stats
            telem.add_series("client.cache.hits_s",
                             counter_probe(pages, "hits"),
                             kind="cumulative", tag="rate")
            telem.add_series("client.cache.misses_s",
                             counter_probe(pages, "misses"),
                             kind="cumulative", tag="rate")

    # -- lifecycle --------------------------------------------------------------------

    def mount(self) -> None:
        """Bring the stack online (runs the mount exchanges to completion)."""
        if self.mounted:
            return
        self.run(self.fs.mount())
        self.mounted = True

    def run(self, coroutine: Generator, name: str = "workload") -> Any:
        """Drive ``coroutine`` to completion on this stack's simulator."""
        return self.sim.run_process(coroutine, name=name)

    def quiesce(self) -> None:
        """Settle all asynchronous state (client write-back, journal, cache)."""
        self.run(self.client.quiesce(), name="quiesce")
        if self.kind != "iscsi":
            self.run(self.fs.quiesce(), name="server-quiesce")

    def drop_caches(self) -> None:
        """Empty every cache but keep open file descriptors valid."""
        self.run(self.client.drop_caches(), name="drop-caches")
        if self.kind != "iscsi":
            self.run(self.fs.quiesce(), name="server-quiesce")
            self.fs.drop_caches()
            self.run(self.fs.mount(), name="server-remount")

    def make_cold(self) -> None:
        """The paper's cold-cache protocol: quiesce, drop every cache."""
        self.quiesce()
        self.run(self.client.remount_cold(), name="cold")
        if self.kind != "iscsi":
            # Restarting the NFS server empties its buffer cache too.
            self.run(self.fs.remount_cold(), name="server-cold")

    # -- measurement ------------------------------------------------------------------

    def resources(self):
        """Every contended resource in the testbed, client to spindles.

        The list feeds the queueing analytics in :mod:`repro.obs.profile`
        (each entry carries a live
        :class:`~repro.sim.stats.ResourceStats` as ``.stats``): both host
        CPUs, then every disk queue of the RAID array.
        """
        out = [self.client_host.cpu, self.server_host.cpu]
        out.extend(disk.queue for disk in self.raid.disks)
        return out

    def rpc_peers(self):
        """Every RPC peer of the stack, connection by connection.

        Each connection's caller comes before its server side, so
        ``rpc_peers()[0]`` is the leading connection's caller.
        """
        if self.kind == "iscsi":
            callers = (self.session.rpcs if self.session is not None
                       else [self.initiator.rpc])
            return [peer for pair in zip(callers, self.target.connections)
                    for peer in pair]
        return [self.nfs_client.rpc, self.server.rpc]

    def check(self, strict: bool = True):
        """Verify the runtime sanitizers (no-op unless built with san=True).

        Returns the finding list; with ``strict`` (the default) raises
        :class:`repro.check.simsan.SanitizerError` on any finding.
        """
        if self.sanitizer is None:
            return []
        return self.sanitizer.verify(strict=strict)

    def snapshot(self) -> CountersSnapshot:
        """Return an immutable copy of the current counter values."""
        return self.counters.snapshot()

    def delta(self, since: CountersSnapshot) -> CountersSnapshot:
        """Return the traffic accumulated since ``since`` was snapshotted."""
        return self.counters.delta(since)

    def set_rtt(self, rtt: float) -> None:
        """The NISTNet knob (Fig. 6)."""
        self.link.set_rtt(rtt)

    def reset_cpu_windows(self) -> None:
        """Start fresh CPU-utilization measurement windows on both hosts."""
        self.client_host.reset_utilization_window()
        self.server_host.reset_utilization_window()

    @property
    def now(self) -> float:
        return self.sim.now


def make_stack(kind: str, params: Optional[TestbedParams] = None,
               mounted: bool = True, trace: bool = False,
               fault_plan=None, san: bool = False,
               telemetry: bool = False) -> StorageStack:
    """Build (and by default mount) a stack of the given kind.

    Pass ``trace=True`` to attach a recording :class:`repro.obs.Tracer`
    (exposed as ``stack.tracer``, ``None`` on an untraced stack).
    Pass a non-empty :class:`repro.faults.FaultPlan` as ``fault_plan`` to
    arm fault injection; its event clock starts *after* the mount, so plan
    times are relative to the beginning of the workload.
    Pass ``san=True`` to attach the runtime sanitizers as the
    simulator's ``san`` slot (``stack.check()`` verifies at end of run);
    the checks observe only, so outputs stay bit-identical.
    Pass ``telemetry=True`` to attach the streaming telemetry collector
    (``stack.telemetry``, a :class:`repro.obs.telemetry.Telemetry`); its
    probes are pure reads, so measured outputs stay bit-identical too.
    """
    stack = StorageStack(kind, params, trace=trace, fault_plan=fault_plan,
                         san=san, telemetry=telemetry)
    if mounted:
        stack.mount()
    if stack.fault_injector is not None:
        stack.fault_injector.start()
    return stack
