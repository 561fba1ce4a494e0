"""Server-farm storm: protocol-aware scale-out on one event calendar.

An abstract think/service queueing model of the paper's two protocols
at farm scale: ``nclients`` clients (each issuing over ``connections``
concurrent channels, the MC/S / nconnect queue-depth axis) against
``nservers`` servers.

* ``protocol="nfs"`` stripes one namespace over all servers the pNFS
  way (:class:`repro.nfs.pnfs.StripeLayout`): server 0 doubles as the
  metadata server, and the first touch of a file costs a ``LAYOUTGET``
  round trip before the I/O is sent to the file's home server.  A
  ``sharing`` fraction of requests lands in a small shared-file pool
  (the cross-client sharing the paper's Section 7 studies); the rest
  hit per-client private files.
* ``protocol="iscsi"`` is block access: each client owns its volume and
  talks only to its portal server (``client % nservers``) — no metadata
  hop, no sharing (volumes are single-client by design, Section 2.3).

Every figure the storm returns is **machine-independent simulated
outcome** — completions, makespan, message counts, and per-server
queueing integrals read from :class:`~repro.sim.stats.ResourceStats` —
so a committed baseline can be diffed exactly across hosts.  Per-server
figures are collected as raw integrals (``busy_time``,
``queue_integral``, ``total_wait``, which all stop growing once a server
goes idle) and divided by the makespan.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from ..nfs.pnfs import StripeLayout
from .kernel import Simulator
from .resources import Resource, Store

__all__ = ["run_farm", "FARM_PROTOCOLS"]

FARM_PROTOCOLS = ("nfs", "iscsi")


# Every message is one flat calendar record: ``sim._schedule_call1`` of
# the receiving port's ``Store.put``, ``latency`` after the send.
_Ports = Dict[str, Callable[[Any], None]]


def _farm_server(sim: Simulator, ports: _Ports, server_id: int,
                 layout: StripeLayout, service: float, mds_service: float,
                 latency: float,
                 capacity: int) -> Tuple[Resource, Dict[str, int]]:
    """One server: an inbox, a service resource, request workers."""
    inbox = Store(sim, name="srv%d" % server_id)
    ports["srv%d" % server_id] = inbox.put
    resource = Resource(sim, capacity=capacity, name="farm-srv%d" % server_id)
    counts = {"layout": 0, "io": 0}

    def request(kind, reply_port, payload):
        if kind == "layout":
            counts["layout"] += 1
            yield from resource.use(mds_service)
            answer: Any = layout.server_for(payload)
        else:
            counts["io"] += 1
            yield from resource.use(service)
            answer = payload
        sim._schedule_call1(ports[reply_port], answer, latency)

    def dispatcher():
        while True:
            kind, reply_port, payload = yield from inbox.get()
            sim.spawn(request(kind, reply_port, payload),
                      name="srv%d.req" % server_id)

    sim.spawn(dispatcher(), name="srv%d" % server_id)
    return resource, counts


def _farm_client(sim: Simulator, ports: _Ports, client_id: int,
                 nservers: int, protocol: str, connections: int,
                 requests: int, sharing_ppt: int, shared_pool: int,
                 files_per_client: int, think: float, latency: float,
                 sink: list) -> None:
    """One client: ``connections`` workers sharing a layout cache."""
    layouts: Dict[str, int] = {}   # path -> home server (client-side cache)
    progress = {"done": 0}
    for worker_id in range(connections):
        port = "cl%d.w%d" % (client_id, worker_id)
        box = Store(sim, name=port)
        ports[port] = box.put
        sim.spawn(_farm_worker(
            sim, ports, box, port, client_id, worker_id, nservers,
            protocol, connections, requests, sharing_ppt, shared_pool,
            files_per_client, think, latency, layouts, progress, sink),
            name="farm-client")


def _farm_worker(sim, ports, box, port, client_id, worker_id, nservers,
                 protocol, connections, requests, sharing_ppt, shared_pool,
                 files_per_client, think, latency, layouts, progress, sink):
    """One channel of a client: think, route, send, await the reply."""
    # Pairwise-distinct think times across every (client, worker) pair,
    # so no two workers issue in lockstep.  The committed
    # BENCH_scale.json depends on these exact values.
    my_think = think * (1.0 + client_id * 7.3e-5 + worker_id * 1.9e-6)
    for seq in range(worker_id, requests, connections):
        yield sim.hold(my_think)
        if protocol == "iscsi":
            # Block access: this client's volume, its portal server.
            home = client_id % nservers
        else:
            # A seeded-RNG-free request mix: an arithmetic hash picks
            # shared-pool vs private files deterministically.
            h = (client_id * 2654435761 + seq * 97843219) & 0xFFFFFFFF
            if h % 1000 < sharing_ppt:
                path = "shared/f%02d" % ((h // 1000) % shared_pool)
            else:
                path = "c%d/f%d" % (client_id, seq % files_per_client)
            home = layouts.get(path)
            if home is None:
                # First touch: LAYOUTGET round trip to the MDS (server 0)
                # before the I/O can be routed.
                sim._schedule_call1(ports["srv0"], ("layout", port, path),
                                    latency)
                home = yield from box.get()
                layouts[path] = home
        sim._schedule_call1(ports["srv%d" % home], ("io", port, seq), latency)
        yield from box.get()
        progress["done"] += 1
    if progress["done"] == requests:
        # This worker retired the client's last request: exactly one
        # worker observes the full count after its loop.
        sink.append((client_id, sim.now, requests))


def _server_row(server_id: int, resource: Resource, counts: Dict[str, int],
                capacity: int) -> Dict[str, Any]:
    """Raw per-server figures (integrals, counts)."""
    stats = resource.stats
    return {
        "server": server_id,
        "capacity": capacity,
        "layout_served": counts["layout"],
        "io_served": counts["io"],
        "busy_time": round(stats.busy_time, 9),
        "queue_integral": round(stats.queue_integral, 9),
        "total_wait": round(stats.total_wait, 9),
        "acquisitions": stats.acquisitions,
        "contended": stats.contended,
        "max_wait": round(stats.max_wait, 9),
    }


def run_farm(protocol: str = "nfs", nclients: int = 64, nservers: int = 1,
             connections: int = 1, sharing: float = 0.0, requests: int = 8,
             think: float = 0.004, service: float = 0.0006,
             mds_service: float = 0.0001, latency: float = 0.0005,
             shared_pool: int = 16, files_per_client: int = 4,
             server_capacity: int = 1) -> Dict[str, Any]:
    """Run the farm storm; return its machine-independent outcome.

    The returned ``per_server`` rows carry raw queueing integrals plus
    derived figures (``utilization``, ``mean_queue``, ``mean_wait``,
    ``littles_residual``) computed against the makespan.
    """
    if protocol not in FARM_PROTOCOLS:
        raise ValueError("unknown farm protocol %r; one of %s"
                         % (protocol, FARM_PROTOCOLS))
    if nclients < 1:
        raise ValueError("nclients must be >= 1 (got %d)" % (nclients,))
    if nservers < 1:
        raise ValueError("nservers must be >= 1 (got %d)" % (nservers,))
    if connections < 1:
        raise ValueError("connections must be >= 1 (got %d)" % (connections,))
    if not 0.0 <= sharing <= 1.0:
        raise ValueError("sharing must be in [0, 1] (got %r)" % (sharing,))
    if requests < 1:
        raise ValueError("requests must be >= 1 (got %d)" % (requests,))
    sharing_ppt = int(round(sharing * 1000))
    layout = StripeLayout(nservers)

    sim = Simulator()
    ports: _Ports = {}
    sink: list = []
    servers = [
        _farm_server(sim, ports, server_id, layout, service, mds_service,
                     latency, server_capacity)
        for server_id in range(nservers)
    ]
    for client_id in range(nclients):
        _farm_client(sim, ports, client_id, nservers, protocol, connections,
                     requests, sharing_ppt, shared_pool, files_per_client,
                     think, latency, sink)
    sim.run()
    finishes = sorted(sink)
    # Every calendar push bumps _sequence: pushes minus leftovers is the
    # number of records dispatched.
    records = sim._sequence - len(sim._calendar)
    server_rows = [_server_row(server_id, resource, counts, server_capacity)
                   for server_id, (resource, counts) in enumerate(servers)]

    makespan = max(entry[1] for entry in finishes)
    completed = sum(entry[2] for entry in finishes)
    for row in server_rows:
        acquisitions = row["acquisitions"]
        row["utilization"] = round(
            row["busy_time"] / (row["capacity"] * makespan), 9)
        row["mean_queue"] = round(row["queue_integral"] / makespan, 9)
        row["mean_wait"] = (round(row["total_wait"] / acquisitions, 9)
                            if acquisitions else 0.0)
        # Little's law over the whole run: the queue-length integral IS
        # the sum of waits, so the residual is rounding noise only.
        row["littles_residual"] = round(
            abs(row["queue_integral"] - row["total_wait"]), 9)
    total_layout = sum(row["layout_served"] for row in server_rows)
    total_io = sum(row["io_served"] for row in server_rows)
    return {
        "protocol": protocol,
        "clients": nclients,
        "servers": nservers,
        "connections": connections,
        "sharing": sharing,
        "requests_per_client": requests,
        "completed": completed,
        "records": records,
        "makespan": makespan,
        "messages": 2 * (total_layout + total_io),
        "layout_gets": total_layout,
        "throughput": round(completed / makespan, 9),
        "per_server": server_rows,
    }
