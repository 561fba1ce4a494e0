"""The NFS client: the paper's Linux 2.4 client behaviors, per version.

The client exposes the same syscall surface as :class:`~repro.fs.vfs.Vfs`,
so workloads run identically over NFS and iSCSI.  Modeled behaviors (each a
mechanism the paper's analysis leans on):

* **dentry + attribute caches** with a 3 s validity window; cached entries
  older than the window are revalidated with GETATTR; v2/v3 additionally
  revalidate the *target* of an operation even when fresh (close-to-open
  style consistency checks — the warm-cache message floor of Table 3);
* **data page cache** with a 30 s validity window, revalidated through file
  attributes (mtime mismatch invalidates);
* **bounded async write-back** (v3/v4): dirty pages drain through a pool
  of at most ``max_pending_writes`` in-flight WRITE RPCs; a writer that
  outruns the pool stalls — the pseudo-synchronous degradation of
  Section 4.5.  NFS v2 writes are fully synchronous;
* **per-page WRITE/READ RPCs** for streaming I/O (adjacent queued pages
  merge up to ``wsize``, reproducing the ~4.7 KB mean write of Table 4),
  while a single large read() syscall fetches in ``rsize`` chunks (Fig. 5);
* **sequential read-ahead** with a small pipeline depth;
* **v4**: per-component ACCESS checks, OPEN/OPEN_CONFIRM/CLOSE ceremony,
  file delegation (no revalidation for delegated files);
* **Section-7 enhancements** (off by default): a strongly-consistent
  meta-data cache (server callbacks instead of expiry) and directory
  delegation (meta-data updates applied locally and replayed in batched
  DELEGUPDATE RPCs every commit interval — the NFS analogue of ext3's
  update aggregation).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Dict, Generator, List, Optional, Set, Tuple

from ..cache.page_cache import PageCache
from ..core.params import CacheParams, CpuParams, NfsParams
from ..fs.errors import (
    FileExists,
    FileNotFound,
    InvalidArgument,
    NotADirectory,
)
from ..fs.inode import FileAttributes, FileType
from ..net.message import Message
from ..net.rpc import RpcPeer
from ..sim import AnyOf, Event, Simulator
from . import protocol as p

__all__ = ["NfsClient"]

PAGE_SIZE = 4096
ROOT_INO = 1
MAX_SYMLINK_DEPTH = 8

O_RDONLY = 0
O_WRONLY = 1
O_RDWR = 2
O_CREAT = 0o100
O_TRUNC = 0o1000


class _Dentry:
    __slots__ = ("ino", "cached_at", "itype")

    def __init__(self, ino: int, cached_at: float, itype: str = FileType.REGULAR):
        self.ino = ino
        self.cached_at = cached_at
        self.itype = itype


class _Attrs:
    __slots__ = ("data", "cached_at")

    def __init__(self, data: Dict, cached_at: float):
        self.data = data
        self.cached_at = cached_at


class _OpenFile:
    __slots__ = ("ino", "offset", "flags")

    def __init__(self, ino: int, flags: int):
        self.ino = ino
        self.offset = 0
        self.flags = flags


class _DirCache:
    """Cached readdir results (names list, validated via dir attrs)."""

    __slots__ = ("names", "cached_at")

    def __init__(self, names: List[str], cached_at: float):
        self.names = names
        self.cached_at = cached_at


class NfsClient:
    """Syscall interface over NFS RPCs (see module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        rpc: RpcPeer,
        params: Optional[NfsParams] = None,
        cache_params: Optional[CacheParams] = None,
        cpu_params: Optional[CpuParams] = None,
        readahead_pages: int = 2,
        name: str = "nfs-client",
        client_id: str = "client0",
    ):
        self.sim = sim
        self.rpc = rpc
        self.params = params if params is not None else NfsParams()
        self.cache_params = cache_params if cache_params is not None else CacheParams()
        self.cpu_params = cpu_params if cpu_params is not None else CpuParams()
        self.readahead_pages = readahead_pages
        self.name = name
        self.client_id = client_id

        self.cwd_ino = ROOT_INO
        self._fds: Dict[int, _OpenFile] = {}
        self._next_fd = 3
        self._dentries: Dict[Tuple[int, str], _Dentry] = {}
        self._attrs: Dict[int, _Attrs] = {}
        self._dir_contents: Dict[int, _DirCache] = {}
        self._symlink_inos: Set[int] = set()
        self._access_cache: Dict[int, float] = {}     # v4 per-dir ACCESS results
        self._symlinks: Dict[int, str] = {}
        self._confirmed_opens: Set[int] = set()       # v4 OPEN_CONFIRM done
        self._ceremonied_opens: Set[int] = set()      # v4 opens needing CLOSE
        self._delegated_files: Set[int] = set()       # v4 read delegations
        capacity_pages = max(64, self.cache_params.client_cache_bytes // PAGE_SIZE)
        self._pages = PageCache(capacity_pages, name=name + ".pages")
        self._dirty_size: Dict[int, int] = {}
        self._revalidated: Tuple[int, float] = (-1, -1.0)
        self._inflight_pages: Dict[Tuple[int, int], Event] = {}
        self._data_verified_at: Dict[int, float] = {}
        self._last_read_page: Dict[int, int] = {}

        # write-back state
        self._wb_queue: "OrderedDict[Tuple[int, int], float]" = OrderedDict()
        self._wb_forced: Set[int] = set()
        self._wb_inflight = 0
        self._wb_inflight_by_ino: Dict[int, int] = {}
        self._wb_kick = sim.event()
        self._wb_drain_waiters: List[Tuple[Optional[int], Event]] = []
        self._uncommitted: Set[int] = set()
        self.writeback_delay = self.params.writeback_delay
        # The write-back bounds are attributes, not properties: they derive
        # from params that never change, and every write reads them.
        self._wb_limit = max(1, self.params.max_pending_writes)
        self._wb_backlog_limit = self._wb_limit * 4
        self._wb_daemon = sim.spawn(self._writeback_loop(), name=name + ".wb")

        # Section-7 directory delegation state
        self._deleg_dirs: Set[int] = set()
        self._deleg_records: List[Dict] = []
        self._deleg_unreplayed: Set[int] = set()      # locally created inos
        self._deleg_inflight: Set[int] = set()        # creates being replayed
        self._deleg_flush_gate: Optional[Event] = None
        self._deleg_ino_pool: List[int] = []
        self._deleg_flusher = None
        if self.params.directory_delegation:
            self._deleg_flusher = sim.spawn(
                self._deleg_flush_loop(), name=name + ".deleg"
            )
        rpc.set_handler(self._handle_callback)

    # ======================================================================
    # RPC plumbing
    # ======================================================================

    def _call(self, op: str, payload_bytes: int = 0, **body) -> Generator:
        reply = yield from self.rpc.call(op, payload_bytes, **body,
                                         client=self.client_id)
        status = reply.body.get("status", p.NfsStatus.OK)
        if status != p.NfsStatus.OK:
            error = p.NfsStatus.to_exception(status, reply.body.get("detail", op))
            # A reply to a retransmitted exchange: the error may be an
            # artifact of re-executing a non-idempotent op whose first
            # reply was lost (e.g. EEXIST from a replayed CREATE after a
            # server reboot emptied the duplicate-request cache).  Callers
            # check this flag to apply standard retry semantics.
            error.replayed = reply.is_retransmission
            raise error
        attrs = reply.body.get("attrs")
        if attrs is not None:
            self._cache_attrs(attrs)
        dir_attrs = reply.body.get("dir_attrs")
        if dir_attrs is not None:
            self._cache_attrs(dir_attrs)
        return reply

    def _handle_callback(self, message: Message) -> Generator:
        """Serve server->client calls (Section-7 cache invalidations)."""
        if message.op == p.CB_RECALL:
            ino = message.body["ino"]
            # Release the directory delegation: push pending updates,
            # then stop treating the directory as ours.
            yield from self._flush_deleg_records()
            self._deleg_dirs.discard(ino)
            self._dir_contents.pop(ino, None)
            return 8, {"status": p.NfsStatus.OK}
        if message.op == p.CB_INVALIDATE:
            ino = message.body["ino"]
            self._attrs.pop(ino, None)
            self._dir_contents.pop(ino, None)
            doomed = [key for key in self._dentries if key[0] == ino]
            for key in doomed:
                del self._dentries[key]
            yield from self.rpc._charge(64)
            return 8, {"status": p.NfsStatus.OK}
        return 0, {"status": p.NfsStatus.INVAL}

    # ======================================================================
    # attribute / dentry cache
    # ======================================================================

    def _cache_attrs(self, attrs: Dict) -> None:
        data = dict(attrs)
        # Local dirty writes may extend the file beyond what the server has
        # seen; the kernel inode (and so stat) reflects the local view.
        local_size = self._dirty_size.get(data["ino"])
        if local_size is not None and local_size > data["size"]:
            data["size"] = local_size
        self._attrs[data["ino"]] = _Attrs(data, self.sim.now)

    def _attrs_fresh(self, ino: int) -> Optional[Dict]:
        entry = self._attrs.get(ino)
        if entry is None:
            return None
        if self.params.consistent_metadata_cache:
            return entry.data  # valid until a server callback says otherwise
        if self.sim.now - entry.cached_at < self.params.attr_cache_validity:
            return entry.data
        return None

    def _getattr(self, ino: int) -> Generator:
        reply = yield from self._call(p.GETATTR, ino=ino)
        return reply.body["attrs"]

    def _revalidate_attrs(self, ino: int) -> Generator:
        """GETATTR unless the cached attributes are still fresh."""
        attrs = self._attrs_fresh(ino)
        if attrs is None:
            attrs = yield from self._getattr(ino)
        return attrs

    def _dentry_validity(self, dentry: _Dentry) -> float:
        # Linux acregmin/acdirmin: directory entries stay trusted an order
        # of magnitude longer than file entries.
        if dentry.itype == FileType.DIRECTORY:
            return self.params.data_cache_validity
        return self.params.attr_cache_validity

    def _dentry_fresh(self, dir_ino: int, name: str) -> Optional[_Dentry]:
        dentry = self._dentries.get((dir_ino, name))
        if dentry is None:
            return None
        if self.params.consistent_metadata_cache:
            return dentry
        if self.sim.now - dentry.cached_at < self._dentry_validity(dentry):
            return dentry
        return None

    def _cache_dentry(self, dir_ino: int, name: str, ino: int,
                      itype: str = FileType.REGULAR) -> None:
        self._dentries[(dir_ino, name)] = _Dentry(ino, self.sim.now, itype)

    def _drop_dentry(self, dir_ino: int, name: str) -> None:
        self._dentries.pop((dir_ino, name), None)

    # ======================================================================
    # path walking
    # ======================================================================

    def _split(self, path: str) -> Tuple[int, List[str]]:
        if not path:
            raise InvalidArgument("empty path")
        start = ROOT_INO if path.startswith("/") else self.cwd_ino
        parts = [part for part in path.split("/") if part and part != "."]
        return start, parts

    def _v4_access_check(self, dir_ino: int) -> Generator:
        """The v4 client's per-directory ACCESS call (cached while fresh)."""
        if not self.params.access_check_per_component:
            return None
        if self._delegated(dir_ino) or dir_ino in self._deleg_unreplayed:
            return None  # delegation covers access decisions locally
        checked = self._access_cache.get(dir_ino)
        if checked is not None and (
            self.sim.now - checked < self.params.data_cache_validity
            or self.params.consistent_metadata_cache
        ):
            return None
        yield from self._call(p.ACCESS, ino=dir_ino, want=1)
        self._access_cache[dir_ino] = self.sim.now
        return None

    def _lookup(self, dir_ino: int, name: str,
                allow_stale: bool = False) -> Generator:
        """Coroutine: resolve one component (cache, revalidate, or LOOKUP).

        ``allow_stale`` trusts an expired dentry without the revalidation
        GETATTR (kernel paths like utimes that skip the check).
        """
        dentry = self._dentries.get((dir_ino, name))
        if dentry is not None:
            fresh = self._dentry_fresh(dir_ino, name)
            if fresh is not None or allow_stale:
                return dentry.ino
            # Stale: revalidate the cached inode rather than re-looking-up.
            yield from self._getattr(dentry.ino)
            dentry.cached_at = self.sim.now
            self._revalidated = (dentry.ino, self.sim.now)
            return dentry.ino
        reply = yield from self._call(p.LOOKUP, dir=dir_ino, name=name)
        ino = reply.body["ino"]
        itype = reply.body["attrs"]["type"]
        self._cache_dentry(dir_ino, name, ino, itype)
        if itype == FileType.SYMLINK:
            self._symlink_inos.add(ino)
        return ino

    def _symlink_target(self, ino: int) -> Generator:
        """Coroutine: fetch (or reuse) a symlink's target."""
        cached = self._symlinks.get(ino)
        if cached is not None:
            return cached
        reply = yield from self._call(p.READLINK, ino=ino)
        self._symlinks[ino] = reply.body["target"]
        return reply.body["target"]


    def _compound_walk(self, start: int, names) -> Generator:
        """Resolve several cached-or-not components in one COMPOUND (§6.3).

        Components already fresh in the dentry cache are skipped; the
        remainder — however many — cost a single exchange.
        """
        current = start
        index = 0
        while index < len(names):
            dentry = self._dentry_fresh(current, names[index])
            if dentry is None:
                break
            current = dentry.ino
            index += 1
        remaining = list(names[index:])
        if not remaining:
            return current
        reply = yield from self._call(
            p.COMPOUND, dir=current, names=remaining,
            access_checks=self.params.access_check_per_component,
        )
        for entry in reply.body["resolved"]:
            self._cache_dentry(current, entry["name"], entry["ino"],
                               entry["type"])
            if self.params.access_check_per_component:
                self._access_cache[current] = self.sim.now
            current = entry["ino"]
        return current

    def _walk_dirs(self, path: str, _depth: int = 0,
                   revalidate: bool = False) -> Generator:
        """Coroutine: resolve to ``(parent_ino, final_name)``.

        With ``revalidate`` every cached component is re-checked with a
        GETATTR even when fresh — the behavior of the second path walk in
        two-path operations (link/rename), whose dentries the kernel
        re-verifies.
        """
        if _depth > MAX_SYMLINK_DEPTH:
            raise InvalidArgument("too many levels of symbolic links")
        start, parts = self._split(path)
        if not parts:
            raise InvalidArgument("path %r has no final component" % path)
        current = start
        if self.params.compound_rpcs and len(parts) > 1:
            current = yield from self._compound_walk(current, parts[:-1])
            yield from self._v4_access_check(current)
            return current, parts[-1]
        for name in parts[:-1]:
            yield from self._v4_access_check(current)
            if revalidate and not self.params.consistent_metadata_cache:
                dentry = self._dentry_fresh(current, name)
                if dentry is not None:
                    yield from self._getattr(dentry.ino)
            ino = yield from self._lookup(current, name)
            if ino in self._symlink_inos:
                target = yield from self._symlink_target(ino)
                rest = "/".join(parts[parts.index(name) + 1:])
                sub = yield from self._walk_dirs(
                    target + "/" + rest, _depth + 1, revalidate
                )
                return sub
            current = ino
        yield from self._v4_access_check(current)
        return current, parts[-1]

    def _resolve(self, path: str, follow: bool = True, _depth: int = 0,
                 allow_stale: bool = False) -> Generator:
        """Coroutine: resolve a full path to an inode number."""
        if _depth > MAX_SYMLINK_DEPTH:
            raise InvalidArgument("too many levels of symbolic links")
        start, parts = self._split(path)
        if not parts:
            return start
        parent, name = yield from self._walk_dirs(path, _depth)
        ino = yield from self._lookup(parent, name, allow_stale=allow_stale)
        if follow and ino in self._symlink_inos:
            target = yield from self._symlink_target(ino)
            ino = yield from self._resolve(target, follow, _depth + 1)
        return ino

    def _revalidate_target(self, ino: int, came_from_cache: bool) -> Generator:
        """v2/v3 close-to-open check on an operation's final target."""
        if self.params.version >= 4 or self.params.consistent_metadata_cache:
            return None
        if came_from_cache:
            yield from self._getattr(ino)
        return None

    def _final_lookup(self, parent: int, name: str) -> Generator:
        """Resolve the op's target, reporting whether the cache served it."""
        cached = self._dentry_fresh(parent, name) is not None
        ino = yield from self._lookup(parent, name)
        return ino, cached

    # ======================================================================
    # directory syscalls
    # ======================================================================

    def mkdir(self, path: str, mode: int = 0o755) -> Generator:
        """Coroutine: create a directory at ``path``."""
        parent, name = yield from self._walk_dirs(path)
        yield from self._maybe_acquire_deleg(parent)
        if self._delegated(parent):
            self._deleg_create(parent, name, FileType.DIRECTORY, mode)
            return None
        yield from self._ensure_absent(parent, name)
        try:
            reply = yield from self._call(p.MKDIR, dir=parent, name=name,
                                          mode=mode)
            ino = reply.body["ino"]
        except FileExists as error:
            if not getattr(error, "replayed", False):
                raise
            # Replayed MKDIR whose first reply was lost: the directory
            # exists because the first execution made it.
            ino, _cached = yield from self._final_lookup(parent, name)
        self._cache_dentry(parent, name, ino, FileType.DIRECTORY)
        self._dir_contents.pop(parent, None)
        if self.params.version == 2:
            pass  # v2 MKDIR carries attributes already
        if self.params.version >= 4:
            yield from self._getattr(ino)
        return None

    def rmdir(self, path: str) -> Generator:
        """Coroutine: remove the empty directory at ``path``."""
        parent, name = yield from self._walk_dirs(path)
        yield from self._maybe_acquire_deleg(parent)
        if self._delegated(parent):
            ino, _ = yield from self._final_lookup(parent, name)
            self._deleg_remove(parent, name, ino, is_dir=True)
            return None
        ino, cached = yield from self._final_lookup(parent, name)
        yield from self._revalidate_target(ino, cached)
        try:
            yield from self._call(p.RMDIR, dir=parent, name=name)
        except FileNotFound as error:
            if not getattr(error, "replayed", False):
                raise
            # Replayed RMDIR: the first execution already removed it.
        self._forget(parent, name, ino)
        if self.params.version >= 4:
            yield from self._getattr(parent)
        return None

    def chdir(self, path: str) -> Generator:
        """Coroutine: change the working directory to ``path``."""
        parent, name = yield from self._walk_dirs(path)
        ino, cached = yield from self._final_lookup(parent, name)
        yield from self._revalidate_target(ino, cached)
        yield from self._v4_access_check(ino)   # entering the directory
        attrs = self._attrs.get(ino)
        if attrs is not None and attrs.data["type"] != FileType.DIRECTORY:
            raise NotADirectory(path)
        self.cwd_ino = ino
        return None

    def readdir(self, path: str) -> Generator:
        """Coroutine: list the names in the directory at ``path``."""
        ino = yield from self._resolve(path)
        if self.params.directory_delegation and (
            self._deleg_records or ino in self._deleg_unreplayed
        ):
            # The authoritative listing needs our pending updates applied.
            yield from self._flush_deleg_records()
        yield from self._v4_access_check(ino)   # reading the directory
        cached = self._dir_contents.get(ino)
        if cached is not None:
            fresh = (
                self.params.consistent_metadata_cache
                or self.params.version >= 4
                and self.sim.now - cached.cached_at < self.params.attr_cache_validity
            )
            if fresh:
                return list(cached.names)
            if self.params.version < 4:
                # Consistency check: is the cached listing still current?
                attrs = yield from self._getattr(ino)
                entry = self._dir_contents.get(ino)
                if entry is not None and attrs["mtime"] <= entry.cached_at:
                    entry.cached_at = self.sim.now
                    return list(entry.names)
        reply = yield from self._call(p.READDIR, ino=ino)
        names = reply.body["names"]
        self._dir_contents[ino] = _DirCache(list(names), self.sim.now)
        return list(names)

    def symlink(self, target: str, path: str) -> Generator:
        """Coroutine: create a symbolic link ``path`` -> ``target``."""
        parent, name = yield from self._walk_dirs(path)
        yield from self._ensure_absent(parent, name)
        yield from self._ensure_replayed(parent)
        reply = yield from self._call(p.SYMLINK, dir=parent, name=name, target=target)
        ino = reply.body["ino"]
        self._cache_dentry(parent, name, ino, FileType.SYMLINK)
        self._symlinks[ino] = target
        self._dir_contents.pop(parent, None)
        if self.params.version == 2:
            yield from self._getattr(ino)   # v2 SYMLINK reply has no attrs
        if self.params.version >= 4:
            yield from self._getattr(ino)
        return None

    def readlink(self, path: str) -> Generator:
        """Coroutine: return the target of the symlink at ``path``."""
        parent, name = yield from self._walk_dirs(path)
        # v2 trusts a stale symlink dentry; v3+ revalidates it first.
        ino = yield from self._lookup(
            parent, name, allow_stale=self.params.version == 2
        )
        if self.params.consistent_metadata_cache and ino in self._symlinks:
            return self._symlinks[ino]
        reply = yield from self._call(p.READLINK, ino=ino)
        self._symlinks[ino] = reply.body["target"]
        return reply.body["target"]

    # ======================================================================
    # file syscalls
    # ======================================================================

    def creat(self, path: str, mode: int = 0o644) -> Generator:
        """Coroutine: create/truncate a file; returns a descriptor."""
        fd = yield from self.open(path, O_WRONLY | O_CREAT | O_TRUNC, mode)
        return fd

    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644) -> Generator:
        """Coroutine: open ``path`` (O_CREAT/O_TRUNC honored); returns a descriptor."""
        parent, name = yield from self._walk_dirs(path)
        created = False
        if flags & O_CREAT:
            yield from self._maybe_acquire_deleg(parent)
        if self._delegated(parent) and flags & O_CREAT:
            existing = self._dentry_fresh(parent, name)
            if existing is None:
                ino = self._deleg_create(parent, name, FileType.REGULAR, mode)
                created = True
            else:
                ino = existing.ino
        else:
            try:
                ino, _cached = yield from self._final_lookup(parent, name)
            except FileNotFound:
                if not flags & O_CREAT:
                    raise
                try:
                    reply = yield from self._call(
                        p.CREATE, dir=parent, name=name, mode=mode
                    )
                    ino = reply.body["ino"]
                except FileExists as error:
                    if not getattr(error, "replayed", False):
                        raise
                    # Replayed CREATE whose first reply was lost: fall
                    # back to LOOKUP, like Linux for non-exclusive opens.
                    ino, _cached = yield from self._final_lookup(
                        parent, name)
                self._cache_dentry(parent, name, ino)
                self._dir_contents.pop(parent, None)
                created = True
            if ino in self._symlink_inos:
                ino = yield from self._resolve(path)
        if self.params.version >= 4 and not self._delegated(parent):
            yield from self._v4_open_ceremony(ino, created)
        elif not self.params.consistent_metadata_cache:
            # close-to-open: revalidate attributes at open time (folds
            # into a revalidation the walk already performed).
            if not self._just_revalidated(ino):
                yield from self._getattr(ino)
        if flags & O_TRUNC and not created:
            yield from self._truncate_ino(ino, 0)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = _OpenFile(ino, flags)
        return fd

    def _v4_open_ceremony(self, ino: int, created: bool) -> Generator:
        yield from self._call(p.OPEN, ino=ino, create=created)
        if ino not in self._confirmed_opens:
            yield from self._call(p.OPEN_CONFIRM, ino=ino)
            self._confirmed_opens.add(ino)
        yield from self._call(p.ACCESS, ino=ino, want=4)
        yield from self._getattr(ino)
        if created:
            yield from self._call(p.SETATTR, ino=ino, mode=None)
        if self.params.file_delegation:
            self._delegated_files.add(ino)
        self._ceremonied_opens.add(ino)
        return None

    def close(self, fd: int) -> Generator:
        """Coroutine: release the descriptor (close-to-open semantics apply)."""
        handle = self._fds.pop(fd, None)
        if handle is None:
            raise InvalidArgument("bad fd %d" % fd)
        ino = handle.ino
        dirty = self._pages.dirty_pages(ino) or self._wb_inflight_by_ino.get(ino)
        if dirty and not self.params.directory_delegation:
            # close-to-open consistency: close waits for the dirty data to
            # reach the server (plus a COMMIT for unstable writes).  Under
            # directory delegation (Section 7) the file is unshared and the
            # flush stays lazy, like ext3 over iSCSI.
            yield from self.flush_file(ino)
        if self.params.version >= 4 and ino in self._ceremonied_opens:
            self._ceremonied_opens.discard(ino)
            try:
                yield from self._call(p.CLOSE, ino=ino)
            except FileNotFound:
                pass
        return None

    def unlink(self, path: str) -> Generator:
        """Coroutine: remove the file at ``path``."""
        parent, name = yield from self._walk_dirs(path)
        yield from self._maybe_acquire_deleg(parent)
        if self._delegated(parent):
            ino, _ = yield from self._final_lookup(parent, name)
            self._deleg_remove(parent, name, ino, is_dir=False)
            return None
        ino, cached = yield from self._final_lookup(parent, name)
        yield from self._revalidate_target(ino, cached)
        try:
            yield from self._call(p.REMOVE, dir=parent, name=name)
        except FileNotFound as error:
            if not getattr(error, "replayed", False):
                raise
            # Replayed REMOVE: the first execution already unlinked it.
        self._forget(parent, name, ino)
        if self.params.version >= 4:
            yield from self._getattr(parent)
        return None

    def link(self, existing: str, new: str) -> Generator:
        """Coroutine: hard-link ``existing`` as ``new``."""
        target = yield from self._resolve(existing)
        parent, name = yield from self._walk_dirs(new, revalidate=True)
        yield from self._ensure_absent(parent, name)
        yield from self._ensure_replayed(target)
        yield from self._call(p.LINK, dir=parent, name=name, target=target)
        self._cache_dentry(parent, name, target)
        self._dir_contents.pop(parent, None)
        yield from self._getattr(target)   # refresh nlink
        return None

    def rename(self, old: str, new: str) -> Generator:
        """Coroutine: atomically rename ``old`` to ``new``."""
        src_parent, src_name = yield from self._walk_dirs(old)
        ino, cached = yield from self._final_lookup(src_parent, src_name)
        yield from self._revalidate_target(ino, cached)
        dst_parent, dst_name = yield from self._walk_dirs(new, revalidate=True)
        try:
            yield from self._lookup(dst_parent, dst_name)  # replace target?
        except FileNotFound:
            pass
        yield from self._ensure_replayed(ino)
        try:
            yield from self._call(
                p.RENAME,
                src_dir=src_parent, src_name=src_name,
                dst_dir=dst_parent, dst_name=dst_name,
            )
        except FileNotFound as error:
            if not getattr(error, "replayed", False):
                raise
            # Replayed RENAME: the first execution already moved it.
        self._drop_dentry(src_parent, src_name)
        self._cache_dentry(dst_parent, dst_name, ino)
        self._dir_contents.pop(src_parent, None)
        self._dir_contents.pop(dst_parent, None)
        if self.params.version == 2:
            yield from self._getattr(ino)   # v2 RENAME reply carries nothing
        if self.params.version >= 4:
            yield from self._getattr(dst_parent)
        return None

    def truncate(self, path: str, size: int) -> Generator:
        """Coroutine: set the file at ``path`` to ``size`` bytes."""
        ino = yield from self._resolve(path)
        if not self._just_revalidated(ino) and not (
            self.params.consistent_metadata_cache
            and self._attrs_fresh(ino) is not None
        ):
            yield from self._getattr(ino)    # fetch current size first
        if self.params.version >= 4 and not self._deleg_covers(ino):
            # The v4 client truncates through a stateful open.
            yield from self._v4_open_ceremony(ino, created=False)
            yield from self._truncate_ino(ino, size)
            self._ceremonied_opens.discard(ino)
            yield from self._call(p.CLOSE, ino=ino)
            return None
        yield from self._truncate_ino(ino, size)
        return None

    def _truncate_ino(self, ino: int, size: int) -> Generator:
        yield from self._ensure_replayed(ino)
        yield from self._call(p.SETATTR, ino=ino, size=size)
        self._pages.invalidate_file(ino)
        self._dirty_size.pop(ino, None)
        return None

    def chmod(self, path: str, mode: int) -> Generator:
        """Coroutine: change the mode bits of ``path``."""
        ino = yield from self._resolve(path)
        if not self._just_revalidated(ino) and not (
            self.params.consistent_metadata_cache
            and self._attrs_fresh(ino) is not None
        ):
            yield from self._getattr(ino)    # the stat-before-chmod pattern
        if self._deleg_covers(ino):
            self._deleg_setattr(ino, mode=mode)
            return None
        yield from self._call(p.SETATTR, ino=ino, mode=mode)
        if self.params.version >= 4:
            yield from self._getattr(ino)
        return None

    def chown(self, path: str, uid: int, gid: int = 0) -> Generator:
        """Coroutine: change the ownership of ``path``."""
        ino = yield from self._resolve(path)
        if not self._just_revalidated(ino) and not (
            self.params.consistent_metadata_cache
            and self._attrs_fresh(ino) is not None
        ):
            yield from self._getattr(ino)
        if self._deleg_covers(ino):
            self._deleg_setattr(ino, uid=uid, gid=gid)
            return None
        yield from self._call(p.SETATTR, ino=ino, uid=uid, gid=gid)
        if self.params.version >= 4:
            yield from self._getattr(ino)
        return None

    def access(self, path: str, want: int = 4) -> Generator:
        """Coroutine: permission check on ``path``; returns a boolean."""
        parent, name = yield from self._walk_dirs(path)
        ino = yield from self._lookup(parent, name, allow_stale=True)
        if self.params.consistent_metadata_cache:
            return True
        if self.params.version >= 3:
            # The ACCESS exchange doubles as the consistency check (its
            # reply carries fresh attributes).
            yield from self._call(p.ACCESS, ino=ino, want=want)
        else:
            yield from self._getattr(ino)
        return True

    def stat(self, path: str) -> Generator:
        """Coroutine: return the file attributes of ``path``."""
        ino = yield from self._resolve(path)
        if self.params.consistent_metadata_cache and self._attrs_fresh(ino) is not None:
            return self._attrs_to_struct(self._attrs[ino].data)
        # The stat(1) pattern is lstat + stat: the inode is revalidated
        # twice (once per call); a revalidation done during the walk
        # counts as the first.
        if not self._just_revalidated(ino):
            yield from self._getattr(ino)
        attrs = yield from self._getattr(ino)
        return self._attrs_to_struct(attrs)

    def utime(self, path: str, atime: Optional[float] = None,
              mtime: Optional[float] = None) -> Generator:
        """Coroutine: set access/modification times of ``path``."""
        ino = yield from self._resolve(path, allow_stale=True)
        now = self.sim.now
        atime = atime if atime is not None else now
        mtime = mtime if mtime is not None else now
        if self._deleg_covers(ino):
            self._deleg_setattr(ino, atime=atime, mtime=mtime)
            return None
        yield from self._call(p.SETATTR, ino=ino, atime=atime, mtime=mtime)
        if self.params.version >= 4:
            yield from self._getattr(ino)
        return None

    # ======================================================================
    # data path
    # ======================================================================

    def read(self, fd: int, size: int) -> Generator:
        """Coroutine: read up to ``size`` bytes at the descriptor's offset."""
        handle = self._handle(fd)
        done = yield from self._read_ino(handle.ino, handle.offset, size)
        handle.offset += done
        return done

    def pread(self, fd: int, size: int, offset: int) -> Generator:
        """Coroutine: read ``size`` bytes at an explicit ``offset``."""
        handle = self._handle(fd)
        done = yield from self._read_ino(handle.ino, offset, size)
        return done

    def _read_ino(self, ino: int, offset: int, size: int) -> Generator:
        attrs = yield from self._revalidate_data(ino)
        file_size = attrs["size"]
        if offset >= file_size:
            return 0
        size = min(size, file_size - offset)
        if size <= 0:
            return 0
        first = offset // PAGE_SIZE
        last = (offset + size - 1) // PAGE_SIZE
        now = self.sim.now
        missing: List[int] = []
        awaited: List[Event] = []
        for index in range(first, last + 1):
            inflight = self._inflight_pages.get((ino, index))
            if inflight is not None:
                awaited.append(inflight)
                continue
            page = self._pages.lookup(ino, index)
            verified = max(
                page.filled_at if page is not None else -1.0,
                self._data_verified_at.get(ino, -1.0),
            )
            if page is None or (
                now - verified > self.params.data_cache_validity
                and not page.dirty
            ):
                missing.append(index)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                "pagecache." + ("hit" if not missing else "miss"),
                cat="cache", track="client", ino=ino,
                hits=(last - first + 1) - len(missing), misses=len(missing),
            )
        rsize_pages = max(1, self.params.rsize // PAGE_SIZE)
        for run_start, run_len in _index_runs(missing):
            at = run_start
            remaining = run_len
            while remaining > 0:
                chunk = min(remaining, rsize_pages)
                count = min(chunk * PAGE_SIZE, file_size - at * PAGE_SIZE)
                if count <= 0:
                    break
                yield from self._call(
                    p.READ, ino=ino, offset=at * PAGE_SIZE, count=count
                )
                for index in range(at, at + chunk):
                    self._pages.insert(ino, index, now)
                at += chunk
                remaining -= chunk
        for gate in awaited:
            if not gate.triggered:
                yield gate
        self._maybe_readahead(ino, first, last, file_size)
        return size

    def _revalidate_data(self, ino: int) -> Generator:
        """Attribute-based data-cache consistency check (3 s window)."""
        cached = self._attrs.get(ino)
        if ino in self._delegated_files or self.params.consistent_metadata_cache:
            if cached is not None:
                return cached.data
        had_mtime = cached.data["mtime"] if cached is not None else None
        attrs = yield from self._revalidate_attrs(ino)
        if had_mtime is not None and attrs["mtime"] > had_mtime:
            self._pages.invalidate_file(ino)
            self._dir_contents.pop(ino, None)
        # An unchanged mtime re-certifies every cached page of the file.
        self._data_verified_at[ino] = self.sim.now
        return attrs

    def _maybe_readahead(self, ino: int, first: int, last: int, file_size: int) -> None:
        if self.readahead_pages <= 0:
            return
        previous = self._last_read_page.get(ino)
        self._last_read_page[ino] = last
        if previous is None or first != previous + 1:
            return
        max_page = (file_size - 1) // PAGE_SIZE if file_size else 0
        for index in range(last + 1, min(last + self.readahead_pages, max_page) + 1):
            key = (ino, index)
            if self._pages.peek(ino, index) is not None or key in self._inflight_pages:
                continue
            self._inflight_pages[key] = self.sim.event()
            self.sim.spawn(
                self._prefetch_page(ino, index),
                name=self.name + ".readahead",
            )

    def _prefetch_page(self, ino: int, index: int) -> Generator:
        try:
            yield from self._call(
                p.READ, ino=ino, offset=index * PAGE_SIZE, count=PAGE_SIZE
            )
            self._pages.insert(ino, index, self.sim.now)
        except FileNotFound:
            pass  # racing unlink
        finally:
            gate = self._inflight_pages.pop((ino, index), None)
            if gate is not None and not gate.triggered:
                gate.trigger()
        return None

    def write(self, fd: int, size: int) -> Generator:
        """Coroutine: write ``size`` bytes at the descriptor's offset."""
        handle = self._handle(fd)
        done = yield from self._write_ino(handle.ino, handle.offset, size)
        handle.offset += done
        return done

    def pwrite(self, fd: int, size: int, offset: int) -> Generator:
        """Coroutine: write ``size`` bytes at an explicit ``offset``."""
        handle = self._handle(fd)
        done = yield from self._write_ino(handle.ino, offset, size)
        return done

    def _write_ino(self, ino: int, offset: int, size: int) -> Generator:
        if size <= 0:
            return 0
        first = offset // PAGE_SIZE
        last = (offset + size - 1) // PAGE_SIZE
        now = self.sim.now
        if not self.params.async_writes:
            # NFS v2: write-through, one synchronous WRITE per wsize chunk.
            wsize = self.params.wsize
            sent = 0
            while sent < size:
                chunk = min(wsize, size - sent)
                yield from self._call(
                    p.WRITE, payload_bytes=chunk,
                    ino=ino, offset=offset + sent, count=chunk, stable=True,
                )
                sent += chunk
            for index in range(first, last + 1):
                self._pages.insert(ino, index, now)
            self._bump_size(ino, offset + size)
            return size
        for index in range(first, last + 1):
            self._pages.insert(ino, index, now, dirty=True)
            self._wb_enqueue(ino, index)
        self._bump_size(ino, offset + size)
        yield from self._wb_throttle()
        return size

    def _bump_size(self, ino: int, new_end: int) -> None:
        if self._dirty_size.get(ino, -1) < new_end:
            self._dirty_size[ino] = new_end
        entry = self._attrs.get(ino)
        if entry is not None and entry.data["size"] < new_end:
            entry.data["size"] = new_end
            entry.data["mtime"] = self.sim.now

    def lseek(self, fd: int, offset: int) -> None:
        """Reposition the descriptor's offset."""
        self._handle(fd).offset = offset

    def fstat(self, fd: int) -> Generator:
        """Coroutine: return the open file's attributes."""
        handle = self._handle(fd)
        attrs = yield from self._revalidate_attrs(handle.ino)
        return self._attrs_to_struct(attrs)

    def fsync(self, fd: int) -> Generator:
        """Coroutine: force the file's data and meta-data to stable storage."""
        handle = self._handle(fd)
        yield from self.flush_file(handle.ino)
        return None

    # ======================================================================
    # write-back machinery
    # ======================================================================

    def _wb_enqueue(self, ino: int, index: int) -> None:
        key = (ino, index)
        if key not in self._wb_queue:
            self._wb_queue[key] = self.sim.now
        self._kick_wb()

    def _kick_wb(self) -> None:
        if not self._wb_kick.triggered:
            self._wb_kick.trigger()

    def _wb_throttle(self) -> Generator:
        """Stall the writer while the dirty backlog exceeds the bound.

        This is the pseudo-synchronous behavior of Section 4.5: beyond the
        pending-write limit, application writes proceed only as fast as
        WRITE RPCs complete.
        """
        while len(self._wb_queue) + self._wb_inflight > self._wb_backlog_limit:
            self._wb_forced.update(
                ino for ino, _index in islice(self._wb_queue, self._wb_limit))
            self._kick_wb()
            gate = Event(self.sim)
            self._wb_drain_waiters.append((None, gate))
            yield gate
        return None

    def _writeback_loop(self) -> Generator:
        wsize_pages = max(1, self.params.pages_per_flush_rpc)
        while True:
            if not self._wb_queue:
                self._wb_kick = Event(self.sim)
                yield self._wb_kick
                continue
            # Forced inos (fsync/close/throttle) jump the aging queue.
            (ino, index), queued_at = next(iter(self._wb_queue.items()))
            if self._wb_forced and ino not in self._wb_forced:
                for key in self._wb_queue:
                    if key[0] in self._wb_forced:
                        ino, index = key
                        queued_at = self._wb_queue[key]
                        break
            age = self.sim.now - queued_at
            if ino not in self._wb_forced and age < self.writeback_delay:
                # Sleep until the head page matures — but wake early when
                # someone forces a flush.  The floor keeps float rounding
                # from producing a zero-length (livelocking) timeout.
                self._wb_kick = Event(self.sim)
                timer = self.sim.timeout(max(self.writeback_delay - age, 1e-6))
                yield AnyOf(self.sim, [timer, self._wb_kick])
                continue
            if ino in self._deleg_unreplayed:
                # The file's create has not been replayed yet: ship the
                # pending meta-data batch first, then re-read the queue —
                # the file may have been deleted while we yielded.
                yield from self._flush_deleg_records()
                continue
            # Merge adjacent queued pages of the same file, up to wsize.
            pages = [index]
            del self._wb_queue[(ino, index)]
            while len(pages) < wsize_pages and (ino, pages[-1] + 1) in self._wb_queue:
                pages.append(pages[-1] + 1)
                del self._wb_queue[(ino, pages[-1])]
            while self._wb_inflight >= self._wb_limit:
                gate = Event(self.sim)
                self._wb_drain_waiters.append((None, gate))
                yield gate
            self._wb_inflight += 1
            self._wb_inflight_by_ino[ino] = self._wb_inflight_by_ino.get(ino, 0) + 1
            self.sim.spawn(self._write_rpc(ino, pages), name=self.name + ".write")

    def _write_rpc(self, ino: int, pages: List[int]) -> Generator:
        size = len(pages) * PAGE_SIZE
        # The final page is partial: clamp the WRITE to the local EOF so
        # the server's size matches the application's.
        eof = self._dirty_size.get(ino)
        if eof is None:
            entry = self._attrs.get(ino)
            eof = entry.data["size"] if entry is not None else None
        if eof is not None:
            size = max(0, min(size, eof - pages[0] * PAGE_SIZE))
        if size == 0:
            size = PAGE_SIZE  # stale page beyond a truncate; keep it simple
        try:
            try:
                yield from self._call(
                    p.WRITE, payload_bytes=size,
                    ino=ino, offset=pages[0] * PAGE_SIZE, count=size, stable=False,
                )
                self._uncommitted.add(ino)
            except FileNotFound:
                pass  # the file was removed while its write-back was queued
        finally:
            for index in pages:
                self._pages.mark_clean(ino, index)
            self._wb_inflight -= 1
            remaining = self._wb_inflight_by_ino.get(ino, 1) - 1
            if remaining:
                self._wb_inflight_by_ino[ino] = remaining
            else:
                self._wb_inflight_by_ino.pop(ino, None)
                if not self._pages.dirty_pages(ino):
                    self._wb_forced.discard(ino)
            self._wake_wb_waiters(ino)
        return None

    def _wake_wb_waiters(self, ino: int) -> None:
        still_waiting = []
        for waited_ino, gate in self._wb_drain_waiters:
            if waited_ino is None or self._ino_quiet(waited_ino):
                gate.trigger()
            else:
                still_waiting.append((waited_ino, gate))
        self._wb_drain_waiters = still_waiting

    def _ino_quiet(self, ino: int) -> bool:
        if self._wb_inflight_by_ino.get(ino):
            return False
        return not any(key[0] == ino for key in self._wb_queue)

    def _force_flush(self, ino: int) -> None:
        self._wb_forced.add(ino)
        self._kick_wb()
        self.sim.spawn(self._commit_after_drain(ino), name=self.name + ".commit")

    def _commit_after_drain(self, ino: int) -> Generator:
        yield from self._wait_ino_quiet(ino)
        if ino in self._uncommitted and self.params.version >= 3:
            self._uncommitted.discard(ino)
            try:
                yield from self._call(p.COMMIT, ino=ino)
            except FileNotFound:
                pass  # the file was removed while its commit was queued
        return None

    def _wait_ino_quiet(self, ino: int) -> Generator:
        while not self._ino_quiet(ino):
            gate = self.sim.event()
            self._wb_drain_waiters.append((ino, gate))
            yield gate
        return None

    def flush_file(self, ino: int) -> Generator:
        """Coroutine: synchronously push the file's dirty pages + COMMIT."""
        self._wb_forced.add(ino)
        self._kick_wb()
        yield from self._wait_ino_quiet(ino)
        if ino in self._uncommitted and self.params.version >= 3 \
                and not self.params.directory_delegation:
            self._uncommitted.discard(ino)
            yield from self._call(p.COMMIT, ino=ino)
        return None

    def quiesce(self) -> Generator:
        """Coroutine: settle all asynchronous client state."""
        yield from self._flush_deleg_records()
        for key in list(self._wb_queue):
            self._wb_forced.add(key[0])
        self._kick_wb()
        while self._wb_queue or self._wb_inflight:
            gate = self.sim.event()
            self._wb_drain_waiters.append((None, gate))
            yield gate
        if not self.params.directory_delegation:
            for ino in sorted(self._uncommitted):
                try:
                    yield from self._call(p.COMMIT, ino=ino)
                except FileNotFound:
                    pass
        self._uncommitted.clear()
        return None

    def drop_caches(self) -> Generator:
        """Coroutine: drain and drop caches but keep open file handles."""
        yield from self.quiesce()
        self._dentries.clear()
        self._attrs.clear()
        self._dir_contents.clear()
        self._access_cache.clear()
        self._symlinks.clear()
        self._symlink_inos.clear()
        self._delegated_files.clear()
        self._pages.clear()
        self._last_read_page.clear()
        self._dirty_size.clear()
        self._data_verified_at.clear()
        return None

    def remount_cold(self) -> Generator:
        """Coroutine: the cold-cache protocol — drop caches, forget open files."""
        yield from self.drop_caches()
        self._confirmed_opens.clear()
        self._fds.clear()
        self.cwd_ino = ROOT_INO
        return None

    # ======================================================================
    # Section-7: directory delegation
    # ======================================================================

    def acquire_directory_delegation(self, path: str) -> Generator:
        """Coroutine: obtain a delegation (and ino grant) for ``path``."""
        if not self.params.directory_delegation:
            raise InvalidArgument("directory delegation is disabled")
        ino = yield from self._resolve(path)
        reply = yield from self._call(p.DELEGDIR, ino=ino, reserve=4096)
        if not reply.body.get("granted"):
            return False
        lo, hi = reply.body["ino_range"]
        self._deleg_ino_pool.extend(range(lo, hi + 1))
        self._deleg_dirs.add(ino)
        return True

    def _ensure_replayed(self, ino: int) -> Generator:
        """Flush pending delegated records before a server op that needs
        the object (or the namespace around it) to exist remotely."""
        if self.params.directory_delegation and (
            self._deleg_records or ino in self._deleg_unreplayed
        ):
            yield from self._flush_deleg_records()
        return None

    def _maybe_acquire_deleg(self, dir_ino: int) -> Generator:
        """Auto-acquire a delegation on first mutation under a directory."""
        if not self.params.directory_delegation:
            return None
        if self._delegated(dir_ino):
            yield from self._ensure_deleg_inos(dir_ino)
            return None
        reply = yield from self._call(p.DELEGDIR, ino=dir_ino, reserve=4096)
        if reply.body.get("granted"):
            lo, hi = reply.body["ino_range"]
            self._deleg_ino_pool.extend(range(lo, hi + 1))
            self._deleg_dirs.add(dir_ino)
        return None

    def _ensure_deleg_inos(self, dir_ino: int) -> Generator:
        """Renew the inode grant before the pool runs dry."""
        if len(self._deleg_ino_pool) >= 8:
            return None
        reply = yield from self._call(p.DELEGDIR, ino=dir_ino, reserve=4096)
        if reply.body.get("granted"):
            lo, hi = reply.body["ino_range"]
            self._deleg_ino_pool.extend(range(lo, hi + 1))
        return None

    def _delegated(self, dir_ino: int) -> bool:
        return dir_ino in self._deleg_dirs

    def _deleg_covers(self, ino: int) -> bool:
        """True when the object was created under one of our delegations."""
        return ino in self._deleg_unreplayed

    def _deleg_create(self, parent: int, name: str, itype: str, mode: int) -> int:
        if not self._deleg_ino_pool:
            raise InvalidArgument("delegation inode grant exhausted")
        ino = self._deleg_ino_pool.pop()
        now = self.sim.now
        self._cache_dentry(parent, name, ino, itype)
        self._cache_attrs({
            "ino": ino, "type": itype, "mode": mode, "uid": 0, "gid": 0,
            "nlink": 2 if itype == FileType.DIRECTORY else 1, "size": 0,
            "atime": now, "mtime": now, "ctime": now, "generation": 0,
        })
        self._dir_contents.pop(parent, None)
        kind = "mkdir" if itype == FileType.DIRECTORY else "create"
        self._deleg_records.append(
            {"kind": kind, "dir": parent, "name": name, "mode": mode, "ino": ino}
        )
        self._deleg_unreplayed.add(ino)
        if itype == FileType.DIRECTORY:
            self._deleg_dirs.add(ino)   # delegation covers the subtree
        return ino

    def _deleg_remove(self, parent: int, name: str, ino: int, is_dir: bool) -> None:
        queued = ino in self._deleg_unreplayed and ino not in self._deleg_inflight
        if queued:
            # Created and destroyed within one window, with the create
            # still queued: both ends cancel — the file-access analogue of
            # ext3 absorbing short-lived files.
            self._deleg_records = [
                r for r in self._deleg_records if r.get("ino") != ino
            ]
            self._deleg_unreplayed.discard(ino)
            self._deleg_dirs.discard(ino)
            # Drop any pending data for the doomed file.
            for key in [k for k in self._wb_queue if k[0] == ino]:
                del self._wb_queue[key]
            self._pages.invalidate_file(ino)
        else:
            # The create (if any) is already at the server or in flight —
            # batches apply in order, so a remove record is safe.
            self._deleg_records.append(
                {"kind": "rmdir" if is_dir else "remove", "dir": parent, "name": name}
            )
        self._forget(parent, name, ino)

    def _deleg_setattr(self, ino: int, **changes) -> None:
        record = {"kind": "setattr", "ino": ino}
        record.update(changes)
        self._deleg_records.append(record)
        entry = self._attrs.get(ino)
        if entry is not None:
            for key, value in changes.items():
                if value is not None:
                    entry.data[key] = value

    def _flush_deleg_records(self) -> Generator:
        # Serialize flushes: batches must apply in order (a remove may
        # reference a create shipped in the previous batch).
        while self._deleg_flush_gate is not None:
            yield self._deleg_flush_gate
        if not self._deleg_records:
            return None
        self._deleg_flush_gate = self.sim.event()
        records, self._deleg_records = self._deleg_records, []
        replayed = {r.get("ino") for r in records if r.get("ino") is not None}
        self._deleg_inflight.update(replayed)
        try:
            yield from self._call(
                p.DELEGUPDATE, payload_bytes=64 * len(records), records=records
            )
        finally:
            self._deleg_unreplayed.difference_update(replayed)
            self._deleg_inflight.difference_update(replayed)
            gate, self._deleg_flush_gate = self._deleg_flush_gate, None
            gate.trigger()
        return None

    def _deleg_flush_loop(self) -> Generator:
        """Replay delegated updates every journal-commit-like interval."""
        while True:
            yield self.sim.timeout(5.0)
            yield from self._flush_deleg_records()

    # ======================================================================
    # shared helpers
    # ======================================================================

    def _just_revalidated(self, ino: int) -> bool:
        """True if this op's walk already revalidated ``ino`` right now."""
        # The marker is (ino, clock-at-revalidation); "same instant" is
        # deliberately exact equality — any clock advance must invalidate.
        return self._revalidated == (ino, self.sim.now)  # simlint: disable=D104 -- same-instant marker; exact equality is the contract

    def _ensure_absent(self, parent: int, name: str) -> Generator:
        try:
            yield from self._lookup(parent, name)
        except FileNotFound:
            return None
        raise FileExists(name)

    def _forget(self, parent: int, name: str, ino: int) -> None:
        self._drop_dentry(parent, name)
        self._attrs.pop(ino, None)
        self._dirty_size.pop(ino, None)
        self._uncommitted.discard(ino)
        for key in [k for k in self._wb_queue if k[0] == ino]:
            del self._wb_queue[key]
        self._wake_wb_waiters(ino)
        self._dir_contents.pop(parent, None)
        self._dir_contents.pop(ino, None)
        self._symlinks.pop(ino, None)
        self._symlink_inos.discard(ino)
        self._pages.invalidate_file(ino)
        self._delegated_files.discard(ino)
        self._confirmed_opens.discard(ino)
        self._ceremonied_opens.discard(ino)

    def _handle(self, fd: int) -> _OpenFile:
        handle = self._fds.get(fd)
        if handle is None:
            raise InvalidArgument("bad fd %d" % fd)
        return handle

    @staticmethod
    def _attrs_to_struct(attrs: Dict) -> FileAttributes:
        return FileAttributes(
            ino=attrs["ino"], itype=attrs["type"], mode=attrs["mode"],
            uid=attrs["uid"], gid=attrs["gid"], nlink=attrs["nlink"],
            size=attrs["size"], atime=attrs["atime"], mtime=attrs["mtime"],
            ctime=attrs["ctime"],
        )


def _index_runs(indices: List[int]):
    """Yield (start, length) for contiguous runs of a sorted index list."""
    start = None
    length = 0
    for index in indices:
        if start is None:
            start, length = index, 1
        elif index == start + length:
            length += 1
        else:
            yield start, length
            start, length = index, 1
    if start is not None:
        yield start, length
