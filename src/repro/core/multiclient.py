"""A multi-client NFS testbed.

The paper deliberately studies the *unshared* case — one client per data
store — and notes that NFS's costs (consistency checks, synchronous
meta-data updates) exist to pay for sharing.  This module builds the
configuration those costs were designed for: **several client machines
mounting NFS exports**, each over its own Gigabit link.

It is the live counterpart to the Section-7 trace simulation: with the
enhancements enabled, cache-invalidation callbacks and directory-
delegation recalls actually travel between real protocol endpoints here.

Two axes of scale, both on one :class:`~repro.sim.Simulator` calendar:

* ``nservers=M`` builds M independent server machines (host + RAID +
  ext3 + delegation state); client *i* mounts server ``i % M``.  Per-
  server traffic is visible through :attr:`messages_by_server` and
  :attr:`callbacks_by_server`.  With ``striped=True`` every client
  instead connects to *every* server and routes each path to its
  pNFS-style layout home (:mod:`repro.nfs.pnfs`): server 0 doubles as
  the metadata server answering ``LAYOUTGET``, and a cross-server
  namespace is striped over all M exports.

:meth:`SharedNfsTestbed.run` drives one workload process.  To run the
clients concurrently, register one workload factory per client with
:meth:`SharedNfsTestbed.add_workload` and start them together with
:meth:`SharedNfsTestbed.run_phase`.

Machines, connections and NFS endpoints are built by the constructors
:class:`~repro.core.comparison.StorageStack` uses.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from ..client.host import Host
from ..fs.ext3 import Ext3Fs
from ..net.link import Link
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


class _FanoutCounters:
    """Per-client accounting over a striped one-transport-per-server fan.

    ``per_server[s]`` is the :class:`MessageCounters` of this client's
    connection to server ``s``; ``messages`` sums the fan.
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
        self.kind = kind
        self.nservers = nservers
        # pNFS-style export striping (repro.nfs.pnfs): every client
        # connects to every server and routes each path to its layout
        # home; striped=False keeps the classic client-mounts-one-server
        # wiring (and its event sequence) untouched.
        self.striped = striped
        self.layout = StripeLayout(nservers) if striped else None
        self.params = StorageStack._specialize_params(
            kind, params if params is not None else TestbedParams()
        )
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
        for index in range(nclients):
            self._add_client(index)
        for fs in self.filesystems:
            self.sim.run_process(fs.mount(), name="mount")

    # -- placement -------------------------------------------------------------

    def server_of(self, index: int) -> int:
        """Which server client ``index`` mounts."""
        return index % self.nservers

    # -- construction ----------------------------------------------------------

    def _add_server(self, index: int) -> None:
        suffix = "" if self.nservers == 1 else "%d" % index
        host, raid, fs = _server_machine(
            self.sim, self.params, suffix)
        self.server_hosts.append(host)
        self.raids.append(raid)
        self.filesystems.append(fs)
        self.states.append(ServerState())

    def _add_client(self, index: int) -> None:
        cpu = self.params.cpu
        host = Host(self.sim, cpu.client_cpus, "client%d" % index)
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
            self.sim, inner_clients, layout=self.layout))
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
        link = Link(self.sim, rtt=self.params.network.rtt,
                    bandwidth=self.params.network.bandwidth)
        counters = MessageCounters()
        transport = _transport(link, counters, "nfs", self.params, name)
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
        """Execute the workload; returns its result record."""
        return self.sim.run_process(coroutine, name=name)

    def add_workload(self, client_index: int,
                     factory: Callable[[], Generator],
                     phase: str = "workload") -> None:
        """Register a zero-arg workload factory for one client.

        The factories of one phase are spawned together by
        :meth:`run_phase`, so the clients' workloads run concurrently.
        """
        self._phases.setdefault(phase, []).append(
            (factory, "%s.c%d" % (phase, client_index)))

    def run_phase(self, phase: str = "workload") -> None:
        """Run every workload registered under ``phase`` to completion."""
        procs = [self.sim.spawn(factory(), name=name)
                 for factory, name in self._phases.pop(phase, ())]
        if procs:
            self.sim.run_process(self._await_all(procs), name=phase)

    def _await_all(self, procs) -> Generator:
        yield self.sim.all_of(procs)

    def quiesce(self) -> None:
        """Settle all asynchronous state on every client and server."""
        for client in self.clients:
            self.run(client.quiesce(), name="quiesce")
        for fs in self.filesystems:
            self.run(fs.quiesce(), name="server-quiesce")

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
