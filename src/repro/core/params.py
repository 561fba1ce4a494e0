"""Central parameter set for the simulated testbed.

Every tunable the experiments (and ablation benches) twist lives here, with
defaults chosen to mirror the paper's testbed:

* client: 1 GHz PIII, 512 MB RAM; server: dual 933 MHz PIII, 1 GB RAM;
* isolated Gigabit Ethernet (RTT ~0.2 ms on the LAN; NISTNet sweeps to 90 ms);
* server storage: RAID-5, 4 data + 1 parity, 10 K RPM SCSI disks;
* ext3 with a 5 s journal commit interval;
* Linux 2.4 NFS behaviors: 3 s attribute / 30 s data cache validity,
  8 KB rsize/wsize transfer limit, a bounded pending-async-write pool,
  RPC timeout retransmissions, and (v4) per-component ACCESS checks.

Disk constants are *calibrated*, not datasheet values: the paper's arrays
sat behind a caching ServeRAID controller and the benchmark files occupied
a narrow band of a 72 GB array, so effective random-access penalties are
far below full-stroke seek times.  See EXPERIMENTS.md ("Calibration").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = [
    "NetworkParams",
    "DiskParams",
    "RaidParams",
    "CacheParams",
    "Ext3Params",
    "NfsParams",
    "IscsiParams",
    "CpuParams",
    "TestbedParams",
]

KB = 1024
MB = 1024 * 1024
BLOCK_SIZE = 4 * KB


@dataclass
class NetworkParams:
    """Gigabit Ethernet LAN between the client and the server."""

    rtt: float = 0.0002                # seconds; the paper observed < 1 ms
    bandwidth: float = 125_000_000.0   # bytes/s (1 Gb/s)
    header_bytes: int = 128            # per-message protocol+TCP/IP overhead


@dataclass
class DiskParams:
    """Per-spindle service-time model (calibrated; see module docstring)."""

    sequential_bandwidth: float = 40 * MB  # bytes/s streaming rate
    per_request_overhead: float = 0.0009   # s; command setup, controller
    #                                        and kernel per-request latency
    short_seek: float = 0.0002            # s; track-to-track class movement
    # The testbed's ServeRAID controller has a battery-backed write-back
    # cache: writes are absorbed at controller speed and destaged later.
    write_back_cache: bool = True
    write_overhead: float = 0.00012        # s; per write absorbed by the cache
    cache_bandwidth: float = 150 * MB      # bytes/s into the controller cache
    full_seek: float = 0.008              # s; full-stroke seek
    rotational_latency: float = 0.0004    # s; effective (controller-queued)
    capacity_blocks: int = 18 * 1024 * 256  # 18 GB of 4 KB blocks
    # Seeks cost short_seek + (full_seek - short_seek) * sqrt(distance_frac);
    # the sqrt shape is the classic seek-curve approximation.


@dataclass
class RaidParams:
    """RAID-5, four data disks plus parity (the paper's 4+p arrays)."""

    data_disks: int = 4
    stripe_unit_blocks: int = 16          # 64 KB stripe unit


@dataclass
class CacheParams:
    """Buffer/page cache sizing and write-back behavior."""

    client_cache_bytes: int = 400 * MB    # of the client's 512 MB
    server_cache_bytes: int = 800 * MB    # of the server's 1 GB
    dirty_ratio: float = 0.4              # writer throttling threshold
    dirty_writeback_interval: float = 5.0  # pdflush-style period (s)


@dataclass
class Ext3Params:
    """ext3-like filesystem geometry and journaling."""

    block_size: int = BLOCK_SIZE
    inodes_per_block: int = 32             # 128-byte inodes, 4 KB blocks
    dir_entries_per_block: int = 64
    journal_commit_interval: float = 5.0   # the paper's ext3 commit interval
    journal_segment_bytes: int = 128 * KB  # max coalesced journal write
    atime_updates: bool = True


@dataclass
class NfsParams:
    """NFS client/server behaviors (Linux 2.4 era)."""

    version: int = 3
    transport: str = "tcp"                 # v2 uses "udp"
    rsize: int = 8 * KB                    # max data per READ rpc
    wsize: int = 8 * KB                    # max data per WRITE rpc
    attr_cache_validity: float = 3.0       # s (Linux acregmin-style)
    data_cache_validity: float = 30.0      # s
    max_pending_writes: int = 16           # async-write pool (pages); beyond
    #                                        this writes become write-through
    writeback_delay: float = 0.5           # s a dirty page ages before flush
    pages_per_flush_rpc: int = 1           # the 2.4 client flushed per page
    #                                        (Table 4's ~4.7 KB mean write)
    async_writes: bool = True              # v2: False (all writes sync)
    server_async_export: bool = True       # knfsd acks writes from memory
    rpc_timeout: float = 1.1               # s; initial retransmit timer
    rpc_timeout_backoff: float = 2.0
    rpc_max_retries: int = 5
    access_check_per_component: bool = False  # the NFSv4 client idiosyncrasy
    compound_rpcs: bool = False            # v4 compound walks (Section 6.3)
    file_delegation: bool = False          # v4 read delegation
    # Section 7 enhancements (both default off; the "nfs-enhanced" stack
    # turns them on):
    consistent_metadata_cache: bool = False
    directory_delegation: bool = False

    @classmethod
    def for_version(cls, version: int) -> "NfsParams":
        """Defaults mirroring each protocol generation's behavior."""
        if version == 2:
            return cls(
                version=2,
                transport="udp",
                rsize=8 * KB,
                wsize=8 * KB,
                async_writes=False,
            )
        if version == 3:
            return cls(version=3)
        if version == 4:
            return cls(
                version=4,
                rsize=32 * KB,   # the v4 implementation uses larger
                wsize=32 * KB,   # data transfers (Section 4.4)
                access_check_per_component=True,
                file_delegation=True,
            )
        raise ValueError("unsupported NFS version: %r" % (version,))

    @classmethod
    def for_kind(cls, kind: str) -> "NfsParams":
        """The defaults of NFS stack kind ``kind``: its version's, and for
        ``nfs-enhanced`` v4's plus the Section 7 machinery."""
        if kind == "nfs-enhanced":
            return replace(
                cls.for_version(4),
                consistent_metadata_cache=True,
                directory_delegation=True,
                writeback_delay=5.0,     # lazy like ext3's commit interval
                pages_per_flush_rpc=32,  # spatial write aggregation (§6.1)
            )
        if kind in ("nfsv2", "nfsv3", "nfsv4"):
            return cls.for_version(int(kind[-1]))
        raise ValueError("not an NFS stack kind: %r" % (kind,))


@dataclass
class IscsiParams:
    """iSCSI initiator/target and client block-layer behaviors."""

    max_coalesced_write: int = 128 * KB    # elevator merge limit (the paper's
    #                                        observed ~128 KB mean write)
    max_coalesced_read: int = 128 * KB
    command_header_bytes: int = 48         # basic header segment
    # MC/S (multiple connections per session).  connections=1 keeps the
    # original single-TCP-connection wiring byte-identical; >1 adds
    # per-connection transports with a PDU scheduler ("rr" round-robin
    # or "qdepth" least-queue-depth) and in-order command completion at
    # the initiator (repro.iscsi.mcs).
    connections: int = 1
    mcs_policy: str = "rr"


@dataclass
class CpuParams:
    """Per-layer CPU costs (seconds), calibrated to the paper's Tables 9-10.

    The structural claim being modeled: the NFS server path
    (net -> RPC -> NFS -> VFS -> FS -> block -> driver) is roughly twice the
    iSCSI path (net -> SCSI -> driver).
    """

    client_cpus: int = 1
    server_cpus: int = 2

    # network + protocol processing, per message
    net_per_message: float = 12e-6
    rpc_layer: float = 10e-6
    nfs_server_layer: float = 25e-6
    scsi_layer: float = 8e-6
    driver_layer: float = 5e-6

    # filesystem work (charged wherever the FS runs: server for NFS,
    # client for iSCSI)
    vfs_op: float = 4e-6
    fs_block_op: float = 6e-6
    disk_io_issue: float = 15e-6

    # data movement, per byte (copy + checksum on 933 MHz-class cores)
    copy_per_byte: float = 6e-9
    raid_parity_per_byte: float = 25e-9
    # server-side WRITE processing held under the per-inode lock (page
    # allocation, copy into the page cache, inode update); this is what
    # serializes streaming NFS writes to ~2K pages/s as in Table 4
    nfs_write_service: float = 350e-6


@dataclass
class TestbedParams:
    """The complete simulated testbed configuration."""

    __test__ = False  # keep pytest from collecting this as a test class

    network: NetworkParams = field(default_factory=NetworkParams)
    disk: DiskParams = field(default_factory=DiskParams)
    raid: RaidParams = field(default_factory=RaidParams)
    cache: CacheParams = field(default_factory=CacheParams)
    ext3: Ext3Params = field(default_factory=Ext3Params)
    # None: the stack kind's defaults (NfsParams.for_kind).  An explicit
    # NfsParams is used verbatim and must carry the kind's version.
    nfs: Optional[NfsParams] = None
    iscsi: IscsiParams = field(default_factory=IscsiParams)
    cpu: CpuParams = field(default_factory=CpuParams)
    seed: int = 42

    def with_rtt(self, rtt: float) -> "TestbedParams":
        """A copy of this testbed with a different network RTT (Fig. 6)."""
        return replace(self, network=replace(self.network, rtt=rtt))

    def with_nfs_version(self, version: int) -> "TestbedParams":
        """A copy of this testbed configured for NFS version ``version``."""
        return replace(self, nfs=NfsParams.for_version(version))
