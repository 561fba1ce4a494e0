"""The NFS server: protocol handlers over the server-resident ext3.

File handles are inode numbers.  The server is *stateless* for v2/v3 — every
request carries the full identification it needs — and keeps the small
amount of v4/enhancement state (delegations, cache registrations) in
:class:`ServerState`.

Version-relevant behaviors:

* replies carry post-op attributes (v3/v4 always; v2 only on attribute-
  bearing procedures), which is what lets v3 clients skip follow-up
  GETATTRs;
* WRITE with ``stable=False`` is acknowledged once the data is in the
  server's buffer cache (the Linux async-export behavior); COMMIT forces
  it out.  NFS v2 has no unstable writes: data is flushed before the reply;
* meta-data mutations run synchronously against the server filesystem —
  the server's own journal batches its *disk* writes, but the client still
  pays one round trip per update, the crux of Section 6.2.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Set

from ..core.params import CpuParams, NfsParams
from ..fs.errors import FsError, FileNotFound
from ..fs.ext3 import Ext3Fs, ROOT_INO
from ..fs.inode import Inode
from ..net.message import Message
from ..net.rpc import RpcPeer
from ..sim import Resource, Simulator
from . import protocol as p

__all__ = ["NfsServer", "ServerState"]


def _pack_attrs(inode: Inode) -> Dict:
    return {
        "ino": inode.ino,
        "type": inode.itype,
        "mode": inode.mode,
        "uid": inode.uid,
        "gid": inode.gid,
        "nlink": inode.nlink,
        "size": inode.size,
        "atime": inode.atime,
        "mtime": inode.mtime,
        "ctime": inode.ctime,
        "generation": inode.generation,
    }


class ServerState:
    """v4/enhancement state: delegations and meta-data cache registrations.

    One instance may back several :class:`NfsServer` frontends (one per
    client transport) exporting the same filesystem — the multi-client
    configuration of :mod:`repro.core.multiclient`.
    """

    def __init__(self):
        # ino -> set of peer names holding its meta-data cached
        self.cache_registry: Dict[int, Set[str]] = {}
        # ino -> peer name holding a directory delegation
        self.dir_delegations: Dict[int, str] = {}
        # client name -> the server-side RPC peer that can call it back
        self.peer_of: Dict[str, "RpcPeer"] = {}
        # per-inode write serialization, shared across frontends
        self.write_locks: Dict[int, "Resource"] = {}
        self.callbacks_sent = 0
        self.delegations_granted = 0
        self.delegations_recalled = 0
        # pNFS-style export striping (repro.nfs.pnfs): the layout function
        # this server answers LAYOUTGET with when it acts as the metadata
        # server.  None on a plain single-export server, which keeps every
        # pre-existing configuration byte-identical.
        self.layout = None
        self.layouts_granted = 0


class NfsServer:
    """Protocol dispatch over a server-side :class:`Ext3Fs`."""

    def __init__(
        self,
        sim: Simulator,
        fs: Ext3Fs,
        rpc: RpcPeer,
        params: Optional[NfsParams] = None,
        cpu_params: Optional[CpuParams] = None,
        state: Optional["ServerState"] = None,
        name: str = "nfsd",
    ):
        self.sim = sim
        self.fs = fs
        self.rpc = rpc
        self.params = params if params is not None else NfsParams()
        self.cpu_params = cpu_params if cpu_params is not None else CpuParams()
        self.name = name
        self.state = state if state is not None else ServerState()
        self.root_ino = ROOT_INO
        self.ops_served = 0
        self.restarts = 0
        # Per-inode write serialization (the kernel's page/inode locking):
        # concurrent WRITEs to one file are processed one at a time, which
        # bounds streaming-write throughput exactly as the paper observed.
        self._write_locks = self.state.write_locks
        rpc.set_handler(self.handle)
        self._dispatch = {
            p.GETATTR: self._op_getattr,
            p.SETATTR: self._op_setattr,
            p.LOOKUP: self._op_lookup,
            p.ACCESS: self._op_access,
            p.READLINK: self._op_readlink,
            p.READ: self._op_read,
            p.WRITE: self._op_write,
            p.CREATE: self._op_create,
            p.MKDIR: self._op_mkdir,
            p.SYMLINK: self._op_symlink,
            p.REMOVE: self._op_remove,
            p.RMDIR: self._op_rmdir,
            p.RENAME: self._op_rename,
            p.LINK: self._op_link,
            p.READDIR: self._op_readdir,
            p.COMMIT: self._op_commit,
            p.COMPOUND: self._op_compound,
            p.OPEN: self._op_open,
            p.OPEN_CONFIRM: self._op_open_confirm,
            p.CLOSE: self._op_close,
            p.DELEGRETURN: self._op_delegreturn,
            p.DELEGDIR: self._op_delegdir,
            p.DELEGUPDATE: self._op_delegupdate,
            p.FSSTAT: self._op_fsstat,
            p.LAYOUTGET: self._op_layoutget,
        }

    # -- crash recovery (repro.faults) ----------------------------------------

    def restart(self) -> None:
        """The server process comes back after a crash.

        v2/v3 are stateless — every request carries what the server needs,
        so the only casualty is in-memory replay state (the duplicate-
        request cache, knfsd's is not persistent).  A v4-style server also
        loses its delegations and cache registrations: clients rediscover
        and re-register through ordinary requests, exactly the grace-period
        behavior the protocol's recovery story depends on.
        """
        self.restarts += 1
        self.rpc.session_reset()
        if self.params.version >= 4:
            self.state.dir_delegations.clear()
            self.state.cache_registry.clear()
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                "nfs.server-restart", cat="fault", track="server",
                stateless=self.params.version < 4,
            )

    # -- dispatch -------------------------------------------------------------------

    def handle(self, message: Message) -> Generator:
        """RPC handler: returns ``(reply_payload_bytes, reply_body)``."""
        span = None
        tracer = self.sim.tracer
        if tracer is not None:
            span = tracer.begin_span(
                "nfs:" + message.op, cat="nfs", track="server")
        try:
            handler = self._dispatch.get(message.op)
            if handler is None:
                return 0, {"status": p.NfsStatus.INVAL, "detail": message.op}
            client = message.body.get("client")
            if client is not None:
                self.state.peer_of[client] = self.rpc
            self.ops_served += 1
            try:
                result = yield from handler(message.body)
            except FsError as error:
                return 0, {"status": p.NfsStatus.from_exception(error)}
            return result
        finally:
            if span is not None:
                tracer.end_span(span)

    def _inode(self, ino: int) -> Generator:
        # iget's own coroutine: no wrapper frame per NFS procedure.
        return self.fs.iget(ino)

    # -- procedures -------------------------------------------------------------------

    def _op_getattr(self, args: Dict) -> Generator:
        inode = yield from self._inode(args["ino"])
        self._register_cache(inode.ino, args.get("client"))
        return p.ATTR_BYTES, {"status": p.NfsStatus.OK, "attrs": _pack_attrs(inode)}

    def _op_setattr(self, args: Dict) -> Generator:
        inode = yield from self._inode(args["ino"])
        yield from self.fs.setattr(
            inode,
            mode=args.get("mode"),
            uid=args.get("uid"),
            gid=args.get("gid"),
            size=args.get("size"),
            atime=args.get("atime"),
            mtime=args.get("mtime"),
        )
        yield from self._invalidate(inode.ino, args.get("client"))
        return p.ATTR_BYTES, {"status": p.NfsStatus.OK, "attrs": _pack_attrs(inode)}

    def _op_lookup(self, args: Dict) -> Generator:
        parent = yield from self._inode(args["dir"])
        try:
            ino = yield from self.fs.dir_lookup(parent, args["name"])
        except FileNotFound:
            # The name may exist only in another client's delegated,
            # not-yet-replayed state: recall the delegation and retry.
            recalled = yield from self._recall_if_delegated(
                parent.ino, args.get("client")
            )
            if not recalled:
                raise
            ino = yield from self.fs.dir_lookup(parent, args["name"])
        inode = yield from self._inode(ino)
        self._register_cache(ino, args.get("client"))
        return (
            p.FH_BYTES + p.ATTR_BYTES,
            {"status": p.NfsStatus.OK, "ino": ino, "attrs": _pack_attrs(inode)},
        )

    def _op_access(self, args: Dict) -> Generator:
        inode = yield from self._inode(args["ino"])
        ok = self.fs.access(inode, args.get("want", 4), args.get("uid", 0))
        self._register_cache(inode.ino, args.get("client"))
        return p.ATTR_BYTES, {
            "status": p.NfsStatus.OK,
            "granted": ok,
            "attrs": _pack_attrs(inode),
        }

    def _op_readlink(self, args: Dict) -> Generator:
        inode = yield from self._inode(args["ino"])
        target = yield from self.fs.readlink(inode)
        return len(target), {"status": p.NfsStatus.OK, "target": target}

    def _op_read(self, args: Dict) -> Generator:
        inode = yield from self._inode(args["ino"])
        done = yield from self.fs.read_file(inode, args["offset"], args["count"])
        return done, {
            "status": p.NfsStatus.OK,
            "count": done,
            "eof": args["offset"] + done >= inode.size,
            "attrs": _pack_attrs(inode),
        }

    def _op_write(self, args: Dict) -> Generator:
        inode = yield from self._inode(args["ino"])
        lock = self._write_locks.get(inode.ino)
        if lock is None:
            lock = Resource(self.sim, capacity=1, name="%s.wlock.%d" % (self.name, inode.ino))
            self._write_locks[inode.ino] = lock
        yield from lock.acquire()
        try:
            yield from self.fs._charge(self.cpu_params.nfs_write_service)
            done = yield from self.fs.write_file(inode, args["offset"], args["count"])
            stable = args.get("stable", False)
            if stable or not self.params.server_async_export:
                yield from self.fs.fsync(inode)
        finally:
            lock.release()
        # A write changes size/mtime: other clients' cached meta-data for
        # this file is now stale.
        yield from self._invalidate(inode.ino, args.get("client"))
        return p.ATTR_BYTES, {
            "status": p.NfsStatus.OK,
            "count": done,
            "committed": stable or not self.params.server_async_export,
            "attrs": _pack_attrs(inode),
        }

    def _op_create(self, args: Dict) -> Generator:
        parent = yield from self._inode(args["dir"])
        inode = yield from self.fs.create(parent, args["name"], args.get("mode", 0o644))
        yield from self._invalidate(parent.ino, args.get("client"))
        self._register_cache(inode.ino, args.get("client"))
        return (
            p.FH_BYTES + 2 * p.ATTR_BYTES,
            {
                "status": p.NfsStatus.OK,
                "ino": inode.ino,
                "attrs": _pack_attrs(inode),
                "dir_attrs": _pack_attrs(parent),
            },
        )

    def _op_mkdir(self, args: Dict) -> Generator:
        parent = yield from self._inode(args["dir"])
        inode = yield from self.fs.mkdir(parent, args["name"], args.get("mode", 0o755))
        yield from self._invalidate(parent.ino, args.get("client"))
        self._register_cache(inode.ino, args.get("client"))
        return (
            p.FH_BYTES + 2 * p.ATTR_BYTES,
            {
                "status": p.NfsStatus.OK,
                "ino": inode.ino,
                "attrs": _pack_attrs(inode),
                "dir_attrs": _pack_attrs(parent),
            },
        )

    def _op_symlink(self, args: Dict) -> Generator:
        parent = yield from self._inode(args["dir"])
        inode = yield from self.fs.symlink(parent, args["name"], args["target"])
        yield from self._invalidate(parent.ino, args.get("client"))
        body = {"status": p.NfsStatus.OK, "ino": inode.ino}
        payload = p.FH_BYTES
        if self.params.version >= 3:
            body["attrs"] = _pack_attrs(inode)
            payload += p.ATTR_BYTES
        return payload, body

    def _op_remove(self, args: Dict) -> Generator:
        parent = yield from self._inode(args["dir"])
        yield from self.fs.unlink(parent, args["name"])
        yield from self._invalidate(parent.ino, args.get("client"))
        body = {"status": p.NfsStatus.OK}
        if self.params.version >= 3:
            body["dir_attrs"] = _pack_attrs(parent)
        return p.ATTR_BYTES, body

    def _op_rmdir(self, args: Dict) -> Generator:
        parent = yield from self._inode(args["dir"])
        yield from self.fs.rmdir(parent, args["name"])
        yield from self._invalidate(parent.ino, args.get("client"))
        body = {"status": p.NfsStatus.OK}
        if self.params.version >= 3:
            body["dir_attrs"] = _pack_attrs(parent)
        return p.ATTR_BYTES, body

    def _op_rename(self, args: Dict) -> Generator:
        src = yield from self._inode(args["src_dir"])
        dst = yield from self._inode(args["dst_dir"])
        yield from self.fs.rename(src, args["src_name"], dst, args["dst_name"])
        yield from self._invalidate(src.ino, args.get("client"))
        if dst.ino != src.ino:
            yield from self._invalidate(dst.ino, args.get("client"))
        body = {"status": p.NfsStatus.OK}
        payload = 8
        if self.params.version >= 3:
            body["dir_attrs"] = _pack_attrs(dst)
            payload += p.ATTR_BYTES
        return payload, body

    def _op_link(self, args: Dict) -> Generator:
        parent = yield from self._inode(args["dir"])
        target = yield from self._inode(args["target"])
        yield from self.fs.link(parent, args["name"], target)
        yield from self._invalidate(parent.ino, args.get("client"))
        yield from self._invalidate(target.ino, args.get("client"))
        body = {"status": p.NfsStatus.OK}
        payload = 8
        if self.params.version >= 3:
            body["attrs"] = _pack_attrs(target)
            payload += p.ATTR_BYTES
        return payload, body

    def _op_readdir(self, args: Dict) -> Generator:
        inode = yield from self._inode(args["ino"])
        names = yield from self.fs.readdir(inode)
        self._register_cache(inode.ino, args.get("client"))
        payload = p.DIRENT_BYTES * len(names) + p.ATTR_BYTES
        return payload, {
            "status": p.NfsStatus.OK,
            "names": names,
            "attrs": _pack_attrs(inode),
        }

    def _op_commit(self, args: Dict) -> Generator:
        inode = yield from self._inode(args["ino"])
        yield from self.fs.fsync(inode)
        return 8, {"status": p.NfsStatus.OK, "attrs": _pack_attrs(inode)}

    def _op_compound(self, args: Dict) -> Generator:
        """Resolve a whole path in one exchange (v4 compounds, §6.3).

        The compound bundles the per-component LOOKUP (+ACCESS) ops of a
        walk into one message; the server performs the same filesystem
        work, returning the resolved inode numbers and the final object's
        attributes.
        """
        current = yield from self._inode(args["dir"])
        resolved = []
        for name in args["names"]:
            ino = yield from self.fs.dir_lookup(current, name)
            current = yield from self._inode(ino)
            if args.get("access_checks"):
                self.fs.access(current, 1, args.get("uid", 0))
            resolved.append({"name": name, "ino": ino,
                             "type": current.itype})
            self._register_cache(ino, args.get("client"))
        return (
            p.FH_BYTES * max(1, len(resolved)) + p.ATTR_BYTES,
            {
                "status": p.NfsStatus.OK,
                "resolved": resolved,
                "attrs": _pack_attrs(current),
            },
        )

    def _op_fsstat(self, args: Dict) -> Generator:
        yield from self.fs.cache.read(self.fs.layout.superblock)
        return 48, {
            "status": p.NfsStatus.OK,
            "free_blocks": self.fs.block_alloc.free_count,
        }

    def _op_layoutget(self, args: Dict) -> Generator:
        """pNFS-style layout grant: which data server owns this path.

        Whole-file layouts (export sharding): the metadata server answers
        from its deterministic :class:`~repro.nfs.pnfs.StripeLayout`; a
        server without one grants the degenerate single-export layout.
        The hop reads the export root — the MDS touches its namespace
        state before answering, so the grant costs a real server visit.
        """
        yield from self._inode(self.root_ino)
        layout = self.state.layout
        self.state.layouts_granted += 1
        if layout is None:
            return p.FH_BYTES + p.ATTR_BYTES, {
                "status": p.NfsStatus.OK, "server": 0, "nservers": 1,
            }
        return p.FH_BYTES + p.ATTR_BYTES, {
            "status": p.NfsStatus.OK,
            "server": layout.server_for(args["path"]),
            "nservers": layout.nservers,
        }

    # -- v4 statefulness ------------------------------------------------------------------

    def _op_open(self, args: Dict) -> Generator:
        inode = yield from self._inode(args["ino"])
        delegated = bool(self.params.file_delegation and inode.is_file)
        if delegated:
            self.state.delegations_granted += 1
        return p.FH_BYTES + p.ATTR_BYTES, {
            "status": p.NfsStatus.OK,
            "attrs": _pack_attrs(inode),
            "delegation": delegated,
        }

    def _op_close(self, args: Dict) -> Generator:
        inode = yield from self._inode(args["ino"])
        return 8, {"status": p.NfsStatus.OK, "attrs": _pack_attrs(inode)}

    def _op_open_confirm(self, args: Dict) -> Generator:
        yield from self.fs._charge(self.cpu_params.vfs_op)
        return 8, {"status": p.NfsStatus.OK}

    def _op_delegdir(self, args: Dict) -> Generator:
        """Grant a directory delegation plus an inode-number reservation.

        The reservation is what lets the client create objects locally
        with authoritative inode numbers and replay them later in one
        DELEGUPDATE batch (DESIGN.md, Section-7 enhancements).
        """
        inode = yield from self._inode(args["ino"])
        if not inode.is_dir:
            return 0, {"status": p.NfsStatus.NOTDIR}
        holder = self.state.dir_delegations.get(inode.ino)
        client = args.get("client", "?")
        if holder is not None and holder != client:
            # Recall the delegation: the holder flushes its pending
            # updates and releases; then the new client may acquire.
            peer = self.state.peer_of.get(holder)
            if peer is None:
                return 8, {"status": p.NfsStatus.OK, "granted": False}
            self.state.delegations_recalled += 1
            yield from peer.call(p.CB_RECALL, payload_bytes=16, ino=inode.ino)
            self.state.dir_delegations.pop(inode.ino, None)
        self.state.dir_delegations[inode.ino] = client
        self.state.delegations_granted += 1
        reserved = self.fs.inode_alloc.reserve_range(args.get("reserve", 256))
        return 8 + 8 * 2, {
            "status": p.NfsStatus.OK,
            "granted": True,
            "ino_range": (reserved[0], reserved[-1]),
        }

    def _op_delegreturn(self, args: Dict) -> Generator:
        self.state.dir_delegations.pop(args["ino"], None)
        self.state.delegations_recalled += 1
        yield from self.fs._charge(self.cpu_params.vfs_op)
        return 8, {"status": p.NfsStatus.OK}

    # -- Section-7 enhancements --------------------------------------------------------------

    def _op_delegupdate(self, args: Dict) -> Generator:
        """Apply a batch of delegated meta-data updates (Section 7).

        The client performed these operations locally under a directory
        delegation; the batch replays them against the authoritative
        filesystem, the file-access analogue of a journal commit.
        """
        applied = 0
        skipped = 0
        client = args.get("client")
        for record in args["records"]:
            try:
                yield from self._apply_record(record)
                applied += 1
            except FsError:
                skipped += 1  # e.g. remove of an already-gone name
                continue
            for key in ("dir", "src_dir", "dst_dir", "ino", "target"):
                ino = record.get(key)
                if ino is not None:
                    yield from self._invalidate(ino, client)
        return 8, {"status": p.NfsStatus.OK, "applied": applied, "skipped": skipped}

    def _apply_record(self, record: Dict) -> Generator:
        kind = record["kind"]
        if kind == "mkdir":
            parent = yield from self._inode(record["dir"])
            inode = yield from self.fs.mkdir(
                parent, record["name"], record.get("mode", 0o755),
                ino=record.get("ino"),
            )
            record["result_ino"] = inode.ino
        elif kind == "create":
            parent = yield from self._inode(record["dir"])
            inode = yield from self.fs.create(
                parent, record["name"], record.get("mode", 0o644),
                ino=record.get("ino"),
            )
            record["result_ino"] = inode.ino
        elif kind == "remove":
            parent = yield from self._inode(record["dir"])
            yield from self.fs.unlink(parent, record["name"])
        elif kind == "rmdir":
            parent = yield from self._inode(record["dir"])
            yield from self.fs.rmdir(parent, record["name"])
        elif kind == "setattr":
            inode = yield from self._inode(record["ino"])
            yield from self.fs.setattr(
                inode,
                mode=record.get("mode"),
                uid=record.get("uid"),
                gid=record.get("gid"),
                size=record.get("size"),
                atime=record.get("atime"),
                mtime=record.get("mtime"),
            )
        elif kind == "link":
            parent = yield from self._inode(record["dir"])
            target = yield from self._inode(record["target"])
            yield from self.fs.link(parent, record["name"], target)
        elif kind == "rename":
            src = yield from self._inode(record["src_dir"])
            dst = yield from self._inode(record["dst_dir"])
            yield from self.fs.rename(src, record["src_name"], dst, record["dst_name"])
        else:
            raise FsError("unknown delegated record kind %r" % (kind,))
        return None

    def _recall_if_delegated(self, dir_ino: int, requester) -> Generator:
        """Recall another client's delegation on ``dir_ino``; True if so."""
        holder = self.state.dir_delegations.get(dir_ino)
        if holder is None or holder == requester:
            return False
        peer = self.state.peer_of.get(holder)
        if peer is None:
            return False
        self.state.delegations_recalled += 1
        yield from peer.call(p.CB_RECALL, payload_bytes=16, ino=dir_ino)
        self.state.dir_delegations.pop(dir_ino, None)
        return True

    # -- meta-data cache callbacks -------------------------------------------------------------

    def _register_cache(self, ino: int, client: Optional[str]) -> None:
        if not self.params.consistent_metadata_cache or client is None:
            return
        self.state.cache_registry.setdefault(ino, set()).add(client)

    def _invalidate(self, ino: int, mutating_client: Optional[str]) -> Generator:
        """Send CB_INVALIDATE to every *other* client caching ``ino``."""
        if not self.params.consistent_metadata_cache:
            return None
        holders = self.state.cache_registry.get(ino, set())
        for holder in sorted(holders):
            if holder == mutating_client:
                continue
            self.state.callbacks_sent += 1
            peer = self.state.peer_of.get(holder, self.rpc)
            yield from peer.call(p.CB_INVALIDATE, payload_bytes=16, ino=ino)
        holders.intersection_update({mutating_client} if mutating_client else set())
        return None
