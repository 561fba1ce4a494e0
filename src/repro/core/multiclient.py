"""A multi-client NFS testbed.

The paper deliberately studies the *unshared* case — one client per data
store — and notes that NFS's costs (consistency checks, synchronous
meta-data updates) exist to pay for sharing.  This module builds the
configuration those costs were designed for: **several client machines
mounting NFS exports**, each over its own Gigabit link.

It is the live counterpart to the Section-7 trace simulation: with the
enhancements enabled, cache-invalidation callbacks and directory-
delegation recalls actually travel between real protocol endpoints here.

Two axes of scale:

* ``nservers=M`` builds M independent server machines (host + RAID +
  ext3 + delegation state); client *i* mounts server ``i % M``.  Per-
  server traffic is visible through :attr:`messages_by_server` and
  :attr:`callbacks_by_server`.  With ``striped=True`` every client
  instead connects to *every* server and routes each path to its
  pNFS-style layout home (:mod:`repro.nfs.pnfs`): server 0 doubles as
  the metadata server answering ``LAYOUTGET``, and a cross-server
  namespace is striped over all M exports.
* ``shards=K`` partitions the whole testbed over K shards of a
  :class:`~repro.sim.shard.ShardedSimulator`: server *s* lands on shard
  ``s % K``, client *i* on shard ``i % K``, and each client-server pair
  is wired with a :class:`~repro.net.transport.ShardedTransport` — the
  transport is the shard boundary.  Workloads are then registered as
  factories (:meth:`SharedNfsTestbed.add_workload`) and driven in
  phases (:meth:`SharedNfsTestbed.run_phase`); the phase API works
  identically in the unsharded case, where it spawns everything on the
  one flat calendar, so the same driver code can be compared across
  shardings.  The bed reads client and server state in the driving
  process, so its windows always run on the ``sequential`` executor.

Machines, connections and NFS endpoints are built by the constructors
:class:`~repro.core.comparison.StorageStack` uses.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from ..client.host import Host
from ..fs.ext3 import Ext3Fs
from ..net.link import Link
from ..net.transport import ShardedTransport
from ..nfs.client import NfsClient
from ..nfs.pnfs import StripeLayout, StripedNfsClient
from ..nfs.server import NfsServer, ServerState
from ..sim import Simulator
from ..storage.raid import Raid5Volume
from .comparison import (StorageStack, _nfs_endpoints, _server_machine,
                         _transport)
from .counters import MessageCounters
from .params import TestbedParams

__all__ = ["SharedNfsTestbed"]


class _MergedCounters:
    """Per-client accounting facade over a :class:`ShardedTransport`.

    Keeps ``bed.counters[i].messages`` working in sharded mode, where
    the two transport halves each count only the direction they send.
    """

    __slots__ = ("transport",)

    def __init__(self, transport: ShardedTransport):
        self.transport = transport

    @property
    def messages(self) -> int:
        return (self.transport.client_half.counters.requests
                + self.transport.server_half.counters.requests)

    def snapshot(self):
        return self.transport.merged_counters()


class _FanoutCounters:
    """Per-client accounting over a striped one-transport-per-server fan.

    ``per_server[s]`` is the counter facade for this client's connection
    to server ``s`` (a :class:`MessageCounters` when flat, a
    :class:`_MergedCounters` when sharded); ``messages`` sums the fan.
    """

    __slots__ = ("per_server",)

    def __init__(self, per_server: List[Any]):
        self.per_server = list(per_server)

    @property
    def messages(self) -> int:
        return sum(counters.messages for counters in self.per_server)


class SharedNfsTestbed:
    """``nclients`` NFS clients sharing ``nservers`` servers."""

    def __init__(
        self,
        nclients: int = 2,
        kind: str = "nfsv3",
        params: Optional[TestbedParams] = None,
        nservers: int = 1,
        shards: int = 1,
        striped: bool = False,
    ):
        if kind == "iscsi":
            raise ValueError(
                "iSCSI volumes are single-client by design (Section 2.3); "
                "a shared testbed requires an NFS kind"
            )
        if nclients < 2:
            raise ValueError("a shared testbed needs at least two clients")
        if nservers < 1:
            raise ValueError("nservers must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.kind = kind
        self.nservers = nservers
        self.shards = shards
        # pNFS-style export striping (repro.nfs.pnfs): every client
        # connects to every server and routes each path to its layout
        # home; striped=False keeps the classic client-mounts-one-server
        # wiring (and its event sequence) untouched.
        self.striped = striped
        self.layout = StripeLayout(nservers) if striped else None
        self.params = StorageStack._specialize_params(
            kind, params if params is not None else TestbedParams()
        )
        if shards > 1:
            if self.params.nfs.transport == "udp":
                raise ValueError(
                    "a sharded testbed needs a reliable transport: the lossy "
                    "UDP mode mutates deliveries in flight, which the "
                    "conservative window protocol does not model"
                )
            from ..sim.shard import ShardedSimulator

            # Lookahead = the minimum cross-shard link latency.  Every
            # transport here uses the testbed's one network config, so
            # that minimum is simply rtt/2; a zero-RTT network is
            # rejected by ShardedSimulator (no conservative window).
            # The bed reads client and server state in the driving
            # process, so its windows run on the sequential executor.
            self.sharded: Optional[ShardedSimulator] = ShardedSimulator(
                shards, self.params.network.rtt / 2.0)
            self.sim = None
        else:
            self.sharded = None
            self.sim = Simulator()
        self.server_hosts: List[Host] = []
        self.raids: List[Raid5Volume] = []
        self.filesystems: List[Ext3Fs] = []
        self.states: List[ServerState] = []
        for index in range(nservers):
            self._add_server(index)
        if striped:
            for state in self.states:
                state.layout = self.layout
        # Legacy single-server aliases.
        self.server_host = self.server_hosts[0]
        self.raid = self.raids[0]
        self.fs = self.filesystems[0]
        self.state = self.states[0]
        self.client_hosts: List[Host] = []
        self.clients: List[Any] = []
        self.counters: List[Any] = []
        self.servers: List[NfsServer] = []
        self._phases: dict = {}
        self._phase_seq = 0
        for index in range(nclients):
            self._add_client(index)
        if self.sharded is None:
            for fs in self.filesystems:
                self.sim.run_process(fs.mount(), name="mount")
        else:
            # Mount through the window machinery so the end-of-phase
            # barrier leaves every shard at the same instant.
            for index, fs in enumerate(self.filesystems):
                self.sharded.add_phase(
                    "mount", self.server_shard_index(index), fs.mount,
                    name="mount.s%d" % index)
            self.sharded.run_phase("mount")

    # -- placement -------------------------------------------------------------

    def client_shard_index(self, index: int) -> int:
        """Which shard client ``index`` is placed on (round-robin)."""
        return index % self.shards

    def server_shard_index(self, index: int) -> int:
        """Which shard server ``index`` is placed on (round-robin)."""
        return index % self.shards

    def server_of(self, index: int) -> int:
        """Which server client ``index`` mounts."""
        return index % self.nservers

    def _client_sim(self, index: int) -> Simulator:
        if self.sharded is None:
            return self.sim
        return self.sharded.shard(self.client_shard_index(index)).sim

    def _server_sim(self, index: int) -> Simulator:
        if self.sharded is None:
            return self.sim
        return self.sharded.shard(self.server_shard_index(index)).sim

    # -- construction ----------------------------------------------------------

    def _add_server(self, index: int) -> None:
        suffix = "" if self.nservers == 1 else "%d" % index
        host, raid, fs = _server_machine(
            self._server_sim(index), self.params, suffix)
        self.server_hosts.append(host)
        self.raids.append(raid)
        self.filesystems.append(fs)
        self.states.append(ServerState())

    def _add_client(self, index: int) -> None:
        cpu = self.params.cpu
        client_sim = self._client_sim(index)
        host = Host(client_sim, cpu.client_cpus, "client%d" % index)
        self.client_hosts.append(host)
        if not self.striped:
            client, counters, server = self._connect(
                index, self.server_of(index), host)
            self.clients.append(client)
            self.counters.append(counters)
            self.servers.append(server)
            return
        # Striped: one connection per server, routed by the layout.
        inner_clients: List[NfsClient] = []
        fan: List[Any] = []
        for server_index in range(self.nservers):
            client, counters, server = self._connect(
                index, server_index, host, suffix=".s%d" % server_index)
            inner_clients.append(client)
            fan.append(counters)
            self.servers.append(server)
        self.clients.append(StripedNfsClient(
            client_sim, inner_clients, layout=self.layout))
        self.counters.append(_FanoutCounters(fan))

    def _connect(self, index: int, server_index: int, host: Host,
                 suffix: str = ""):
        """Wire client ``index`` to server ``server_index``.

        Returns ``(client, counters, server_frontend)``.  ``suffix``
        distinguishes the per-server endpoints of a striped client; the
        classic single-mount path passes the empty suffix, keeping every
        endpoint name (and the event sequence) exactly as before.
        """
        name = "%s.c%d%s" % (self.kind, index, suffix)
        if self.sharded is None:
            link = Link(self.sim, rtt=self.params.network.rtt,
                        bandwidth=self.params.network.bandwidth)
            counters: Any = MessageCounters()
            transport: Any = _transport(link, counters, "nfs", self.params,
                                        name)
        else:
            transport = ShardedTransport(
                self.sharded.shard(self.client_shard_index(index)),
                self.sharded.shard(self.server_shard_index(server_index)),
                rtt=self.params.network.rtt,
                bandwidth=self.params.network.bandwidth,
                name=name,
            )
            counters = _MergedCounters(transport)
        # All frontends of one server share its filesystem, its
        # delegation/cache state, and its per-inode write locks.
        tag = "c%d%s" % (index, suffix)
        server, client = _nfs_endpoints(
            transport, self.server_hosts[server_index],
            self.filesystems[server_index], host, self.params,
            names=("nfsd." + tag, "nfsd." + tag, "nfs." + tag,
                   "nfs-client%d%s" % (index, suffix)),
            readahead_pages=2, state=self.states[server_index],
            client_id="client%d" % index)
        return client, counters, server

    # -- driving -----------------------------------------------------------------

    def run(self, coroutine: Generator, name: str = "workload"):
        """Execute the workload; returns its result record (unsharded only)."""
        if self.sharded is not None:
            raise RuntimeError(
                "a sharded testbed has no single calendar to drive; register "
                "per-client factories with add_workload() and call run_phase()"
            )
        return self.sim.run_process(coroutine, name=name)

    def add_workload(self, client_index: int,
                     factory: Callable[[], Generator],
                     phase: str = "workload") -> None:
        """Register a zero-arg workload factory for one client's shard.

        In the unsharded testbed the factories are simply remembered and
        spawned together by :meth:`run_phase`, so driver code is
        identical across shardings.
        """
        if self.sharded is not None:
            self.sharded.add_phase(
                phase, self.client_shard_index(client_index), factory,
                name="%s.c%d" % (phase, client_index))
        else:
            self._phases.setdefault(phase, []).append(
                (factory, "%s.c%d" % (phase, client_index)))

    def run_phase(self, phase: str = "workload") -> None:
        """Run every workload registered under ``phase`` to completion."""
        if self.sharded is not None:
            self.sharded.run_phase(phase)
            return
        procs = [self.sim.spawn(factory(), name=name)
                 for factory, name in self._phases.pop(phase, ())]
        if procs:
            self.sim.run_process(self._await_all(procs), name=phase)

    def _await_all(self, procs) -> Generator:
        yield self.sim.all_of(procs)

    def quiesce(self) -> None:
        """Settle all asynchronous state on every client and server."""
        if self.sharded is None:
            for client in self.clients:
                self.run(client.quiesce(), name="quiesce")
            for fs in self.filesystems:
                self.run(fs.quiesce(), name="server-quiesce")
            return
        self._phase_seq += 1
        phase = "quiesce%d" % self._phase_seq
        for index, client in enumerate(self.clients):
            self.sharded.add_phase(
                phase, self.client_shard_index(index), client.quiesce,
                name="%s.c%d" % (phase, index))
        self.sharded.run_phase(phase)
        server_phase = "server-" + phase
        for index, fs in enumerate(self.filesystems):
            self.sharded.add_phase(
                server_phase, self.server_shard_index(index), fs.quiesce,
                name="%s.s%d" % (server_phase, index))
        self.sharded.run_phase(server_phase)

    def close(self) -> None:
        """Shut the shard executor down (no-op for the unsharded bed)."""
        if self.sharded is not None:
            self.sharded.close()

    def __enter__(self) -> "SharedNfsTestbed":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- accounting --------------------------------------------------------------

    @property
    def total_messages(self) -> int:
        return sum(counters.messages for counters in self.counters)

    @property
    def callbacks_sent(self) -> int:
        return sum(state.callbacks_sent for state in self.states)

    @property
    def messages_by_server(self) -> List[int]:
        """Protocol requests that crossed each server's transports."""
        totals = [0] * self.nservers
        if self.striped:
            for counters in self.counters:
                for server, inner in enumerate(counters.per_server):
                    totals[server] += inner.messages
            return totals
        for index, counters in enumerate(self.counters):
            totals[self.server_of(index)] += counters.messages
        return totals

    @property
    def layouts_granted(self) -> int:
        """LAYOUTGET grants answered across all servers (striped only)."""
        return sum(state.layouts_granted for state in self.states)

    @property
    def callbacks_by_server(self) -> List[int]:
        return [state.callbacks_sent for state in self.states]
