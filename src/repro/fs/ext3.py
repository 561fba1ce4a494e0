"""An ext3-like journaling filesystem over a block device.

This is the filesystem of the paper's testbed, at the granularity its
analysis needs.  It runs in two places:

* at the **server** for the NFS setups (exported by the NFS server), and
* at the **client** for the iSCSI setup (over the initiator's remote
  block device) — the placement difference of Figure 1.

Faithfully modeled mechanisms:

* block-granular meta-data: 32 inodes per inode-table block, 4 KB
  directory blocks, block/inode bitmaps — reading one inode caches its 31
  neighbours (meta-data locality);
* path walks read two blocks per component when cold: the directory's
  inode-table block and its content block (Section 4.3's "two extra
  messages per level of depth");
* meta-data updates dirty buffer-cache blocks and join the running journal
  transaction; commits every 5 s aggregate them (Figure 3);
* file data is written back asynchronously and coalesced by the flusher;
* goal-directed allocation keeps sequential files physically contiguous;
* optional sequential read-ahead pipelines block reads without changing
  the number of commands issued.

File *contents* are not stored — only metadata and block placement; every
operation's cost is the block traffic it generates.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

from ..cache.block_cache import BlockCache
from ..core.params import CpuParams, Ext3Params, TestbedParams
from ..sim import Resource, Simulator
from ..storage.blockdev import BlockDevice
from .alloc import ExtentAllocator, IdAllocator
from .errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from .inode import DIRECT_BLOCKS, FileAttributes, FileType, Inode, POINTERS_PER_MAP_BLOCK
from .journal import Journal
from .layout import DiskLayout

__all__ = ["Ext3Fs"]

ROOT_INO = 1


class Ext3Fs:
    """The filesystem instance (one per mounted volume)."""

    def __init__(
        self,
        sim: Simulator,
        device: BlockDevice,
        cache_bytes: int,
        params: Optional[Ext3Params] = None,
        cpu: Optional[Resource] = None,
        cpu_params: Optional[CpuParams] = None,
        max_coalesced_write: int = 128 * 1024,
        readahead_blocks: int = 0,
        testbed: Optional[TestbedParams] = None,
        name: str = "ext3",
        track: str = "server",
    ):
        self.sim = sim
        self.device = device
        self.params = params if params is not None else Ext3Params()
        self.cpu = cpu
        self.cpu_params = cpu_params if cpu_params is not None else CpuParams()
        self.readahead_blocks = readahead_blocks
        self.name = name
        self.track = track
        self.layout = DiskLayout(device.nblocks, params=self.params)
        cache_params = testbed.cache if testbed is not None else None
        self.cache = BlockCache(
            sim,
            device,
            capacity_bytes=cache_bytes,
            params=cache_params,
            max_coalesced_bytes=max_coalesced_write,
            name=name + ".cache",
            track=track,
        )
        self.journal = Journal(sim, self.cache, self.layout, self.params,
                               name=name + ".jbd", track=track)
        self.inode_alloc = IdAllocator(self.layout.max_inodes)
        self.block_alloc = ExtentAllocator(self.layout.data_start, self.layout.data_blocks)
        self.inodes: Dict[int, Inode] = {}
        self._last_read_logical: Dict[int, int] = {}  # readahead state
        self._next_dir_goal = 1 + self.params.inodes_per_block
        self.mounted = False
        self.mkfs()

    # -- lifecycle ----------------------------------------------------------------

    def mkfs(self) -> None:
        """Initialize an empty filesystem image (offline; no I/O charged)."""
        self.inodes.clear()
        root = Inode(ROOT_INO, FileType.DIRECTORY, mode=0o755, now=self.sim.now)
        self.inodes[ROOT_INO] = root
        self.inode_alloc.allocate()  # ino 1
        root.dir_blocks.append(self.block_alloc.allocate())
        root.size = self.params.block_size

    def mount(self) -> Generator:
        """Coroutine: bring the volume online.

        Reads the superblock and group descriptors; the root inode is
        *pinned* in core for the life of the mount (so touching it never
        charges I/O) — exactly the state a just-mounted ext3 is in, which
        is why the paper's cold-cache numbers do not charge for it.
        """
        yield from self.cache.read(self.layout.superblock)
        yield from self.cache.read(self.layout.group_desc)
        self.mounted = True
        return None

    def unmount(self) -> Generator:
        """Coroutine: quiesce, checkpoint the journal, and detach."""
        yield from self.quiesce()
        yield from self.journal.checkpoint()
        self.mounted = False
        return None

    def quiesce(self) -> Generator:
        """Coroutine: force a journal commit and flush all dirty blocks."""
        yield from self.journal.commit()
        yield from self.cache.sync()
        return None

    def drop_caches(self) -> None:
        """Cold-cache reset: empty the buffer cache (disk state persists)."""
        self.cache.invalidate_all()
        self._last_read_logical.clear()

    def remount_cold(self) -> Generator:
        """Coroutine: the paper's cold-cache protocol — flush, drop, re-mount."""
        yield from self.quiesce()
        self.drop_caches()
        yield from self.mount()
        return None

    # -- inode access ----------------------------------------------------------------

    def iget(self, ino: int) -> Generator:
        """Coroutine: load inode ``ino`` (reads its inode-table block)."""
        inode = self.inodes.get(ino)
        if inode is None:
            raise FileNotFound("inode %d" % ino)
        yield from self._charge(self.cpu_params.fs_block_op)
        if ino != ROOT_INO:  # the root inode is pinned by the mount
            yield from self.cache.read(self.layout.inode_table_block(ino))
        return inode

    def _dirty_inode(self, inode: Inode) -> Generator:
        block = self.layout.inode_table_block(inode.ino)
        yield from self.cache.write(block)
        self.journal.add_metadata(block)
        return None

    # -- directory internals ------------------------------------------------------------

    def _entry_block_index(self, dir_inode: Inode, name: str) -> int:
        slot = dir_inode.slots.index(name)
        return slot // self.params.dir_entries_per_block

    def dir_lookup(self, dir_inode: Inode, name: str) -> Generator:
        """Coroutine: find ``name``; returns the child ino or raises.

        Scans content blocks from the start, as the real readdir-based
        lookup does: a hit reads blocks up to the entry's; a miss reads
        them all.
        """
        if not dir_inode.is_dir:
            raise NotADirectory("inode %d" % dir_inode.ino)
        yield from self._charge(self.cpu_params.vfs_op)
        ino = dir_inode.entries.get(name)
        if ino is None:
            yield from self._read_dir_blocks(dir_inode, len(dir_inode.dir_blocks))
            raise FileNotFound(name)
        yield from self._read_dir_blocks(
            dir_inode, self._entry_block_index(dir_inode, name) + 1
        )
        return ino

    def _read_dir_blocks(self, dir_inode: Inode, nblocks: int) -> Generator:
        for block in dir_inode.dir_blocks[:max(1, nblocks)]:
            yield from self.cache.read(block)
        return None

    def _dir_add_entry(self, dir_inode: Inode, name: str, ino: int) -> Generator:
        per_block = self.params.dir_entries_per_block
        try:
            slot = dir_inode.slots.index(None)
        except ValueError:
            slot = len(dir_inode.slots)
            dir_inode.slots.append(None)
        block_index = slot // per_block
        if block_index >= len(dir_inode.dir_blocks):
            goal = dir_inode.dir_blocks[-1] + 1 if dir_inode.dir_blocks else None
            new_block = yield from self._allocate_blocks(1, goal)
            dir_inode.dir_blocks.append(new_block[0])
            dir_inode.size = len(dir_inode.dir_blocks) * self.params.block_size
        content_block = dir_inode.dir_blocks[block_index]
        yield from self.cache.read(content_block)
        dir_inode.slots[slot] = name
        dir_inode.entries[name] = ino
        yield from self.cache.write(content_block)
        self.journal.add_metadata(content_block)
        dir_inode.mtime = self.sim.now
        dir_inode.touch_meta(self.sim.now)
        yield from self._dirty_inode(dir_inode)
        return None

    def _dir_remove_entry(self, dir_inode: Inode, name: str) -> Generator:
        slot = dir_inode.slots.index(name)
        content_block = dir_inode.dir_blocks[slot // self.params.dir_entries_per_block]
        yield from self.cache.read(content_block)
        dir_inode.slots[slot] = None
        del dir_inode.entries[name]
        yield from self.cache.write(content_block)
        self.journal.add_metadata(content_block)
        dir_inode.mtime = self.sim.now
        dir_inode.touch_meta(self.sim.now)
        yield from self._dirty_inode(dir_inode)
        return None

    # -- allocation internals -------------------------------------------------------------

    def _allocate_blocks(self, count: int, goal: Optional[int] = None) -> Generator:
        """Coroutine: allocate data blocks, charging bitmap-block traffic."""
        blocks = self.block_alloc.allocate_run(count, goal)
        bitmap_blocks = sorted({self.layout.block_bitmap_block(b) for b in blocks})
        for bitmap in bitmap_blocks:
            yield from self.cache.read(bitmap)
            yield from self.cache.write(bitmap)
            self.journal.add_metadata(bitmap)
        return blocks

    def _free_blocks(self, blocks: List[int]) -> Generator:
        bitmap_blocks = sorted({self.layout.block_bitmap_block(b) for b in blocks})
        # Freed blocks' dirty buffers are dropped, not written back.
        self.cache.discard(blocks)
        self.journal.forget_data(blocks)
        for block in blocks:
            self.block_alloc.free(block)
        for bitmap in bitmap_blocks:
            yield from self.cache.read(bitmap)
            yield from self.cache.write(bitmap)
            self.journal.add_metadata(bitmap)
        return None

    def _allocate_inode(
        self,
        itype: str,
        mode: int,
        ino: Optional[int] = None,
        parent: Optional[Inode] = None,
    ) -> Generator:
        if ino is None:
            # ext2/3 placement policy: directories spread across the inode
            # space (each tends to start a fresh inode-table block); files
            # cluster right after their parent directory's inode — the
            # meta-data locality behind Table 3's warm-cache iSCSI wins.
            if itype == FileType.DIRECTORY:
                # Orlov-style: a parent's first child directory starts a
                # fresh inode-table block; later siblings cluster with it.
                sibling = parent.last_child_dir_ino if parent is not None else None
                if sibling is not None:
                    goal = sibling + 1
                else:
                    goal = self._next_dir_goal
                    self._next_dir_goal += self.params.inodes_per_block
                    if self._next_dir_goal > self.layout.max_inodes:
                        self._next_dir_goal = 2
                ino = self.inode_alloc.allocate(goal)
                if parent is not None:
                    parent.last_child_dir_ino = ino
            else:
                goal = parent.ino + 1 if parent is not None else None
                ino = self.inode_alloc.allocate(goal)
        # else: the caller holds a reservation for this ino (delegated create).
        bitmap = self.layout.inode_bitmap_block(ino)
        yield from self.cache.read(bitmap)
        yield from self.cache.write(bitmap)
        self.journal.add_metadata(bitmap)
        inode = Inode(ino, itype, mode=mode, now=self.sim.now)
        self.inodes[ino] = inode
        # The new inode shares its table block with neighbours: read-modify.
        table_block = self.layout.inode_table_block(ino)
        yield from self.cache.read(table_block)
        yield from self._dirty_inode(inode)
        return inode

    def _free_inode(self, inode: Inode) -> Generator:
        bitmap = self.layout.inode_bitmap_block(inode.ino)
        yield from self.cache.read(bitmap)
        yield from self.cache.write(bitmap)
        self.journal.add_metadata(bitmap)
        self.inode_alloc.free(inode.ino)
        del self.inodes[inode.ino]
        yield from self._dirty_inode(inode)
        return None

    # -- namespace operations ----------------------------------------------------------------

    def create(self, dir_inode: Inode, name: str, mode: int = 0o644,
               ino: Optional[int] = None) -> Generator:
        """Coroutine: create a regular file in ``dir_inode``."""
        yield from self._ensure_absent(dir_inode, name)
        inode = yield from self._allocate_inode(
            FileType.REGULAR, mode, ino=ino, parent=dir_inode
        )
        yield from self._dir_add_entry(dir_inode, name, inode.ino)
        return inode

    def mkdir(self, dir_inode: Inode, name: str, mode: int = 0o755,
              ino: Optional[int] = None) -> Generator:
        """Coroutine: create a directory (allocates its first content block)."""
        yield from self._ensure_absent(dir_inode, name)
        inode = yield from self._allocate_inode(
            FileType.DIRECTORY, mode, ino=ino, parent=dir_inode
        )
        first = yield from self._allocate_blocks(1)
        inode.dir_blocks.append(first[0])
        inode.size = self.params.block_size
        yield from self.cache.write(first[0])   # "." and ".." entries
        self.journal.add_metadata(first[0])
        yield from self._dir_add_entry(dir_inode, name, inode.ino)
        dir_inode.nlink += 1                     # the child's ".."
        yield from self._dirty_inode(dir_inode)
        return inode

    def symlink(self, dir_inode: Inode, name: str, target: str) -> Generator:
        """Coroutine: create a (fast) symlink — target stored in the inode."""
        yield from self._ensure_absent(dir_inode, name)
        inode = yield from self._allocate_inode(
            FileType.SYMLINK, 0o777, parent=dir_inode
        )
        inode.symlink_target = target
        inode.size = len(target)
        yield from self._dirty_inode(inode)
        yield from self._dir_add_entry(dir_inode, name, inode.ino)
        return inode

    def readlink(self, inode: Inode) -> Generator:
        """Coroutine: return the target of the symlink at ``path``."""
        if not inode.is_symlink:
            raise InvalidArgument("inode %d is not a symlink" % inode.ino)
        yield from self._update_atime(inode)
        return inode.symlink_target

    def link(self, dir_inode: Inode, name: str, target: Inode) -> Generator:
        """Coroutine: hard-link ``target`` as ``name`` in ``dir_inode``."""
        if target.is_dir:
            raise IsADirectory("cannot hard-link a directory")
        yield from self._ensure_absent(dir_inode, name)
        target.nlink += 1
        target.touch_meta(self.sim.now)
        yield from self._dirty_inode(target)
        yield from self._dir_add_entry(dir_inode, name, target.ino)
        return None

    def unlink(self, dir_inode: Inode, name: str) -> Generator:
        """Coroutine: remove a non-directory entry; frees at nlink == 0."""
        ino = yield from self.dir_lookup(dir_inode, name)
        inode = yield from self.iget(ino)
        if inode.is_dir:
            raise IsADirectory(name)
        yield from self._dir_remove_entry(dir_inode, name)
        inode.nlink -= 1
        inode.touch_meta(self.sim.now)
        if inode.nlink == 0:
            if inode.block_map or inode.map_blocks:
                doomed = [b for b in inode.block_map if b >= 0]
                doomed += inode.map_blocks
                yield from self._free_blocks(doomed)
            yield from self._free_inode(inode)
        else:
            yield from self._dirty_inode(inode)
        return None

    def rmdir(self, dir_inode: Inode, name: str) -> Generator:
        """Coroutine: remove an empty directory."""
        ino = yield from self.dir_lookup(dir_inode, name)
        inode = yield from self.iget(ino)
        if not inode.is_dir:
            raise NotADirectory(name)
        yield from self._read_dir_blocks(inode, len(inode.dir_blocks))  # empty?
        if inode.entries:
            raise DirectoryNotEmpty(name)
        yield from self._dir_remove_entry(dir_inode, name)
        yield from self._free_blocks(list(inode.dir_blocks))
        yield from self._free_inode(inode)
        dir_inode.nlink -= 1
        yield from self._dirty_inode(dir_inode)
        return None

    def rename(
        self,
        src_dir: Inode,
        src_name: str,
        dst_dir: Inode,
        dst_name: str,
    ) -> Generator:
        """Coroutine: atomic rename (replaces an existing target)."""
        ino = yield from self.dir_lookup(src_dir, src_name)
        inode = yield from self.iget(ino)
        existing = dst_dir.entries.get(dst_name)
        if existing is not None:
            if inode.is_dir:
                raise FileExists(dst_name)
            yield from self.unlink(dst_dir, dst_name)
        yield from self._dir_remove_entry(src_dir, src_name)
        yield from self._dir_add_entry(dst_dir, dst_name, ino)
        if inode.is_dir and src_dir.ino != dst_dir.ino:
            src_dir.nlink -= 1
            dst_dir.nlink += 1
            yield from self._dirty_inode(src_dir)
            yield from self._dirty_inode(dst_dir)
        inode.touch_meta(self.sim.now)
        yield from self._dirty_inode(inode)
        return None

    def readdir(self, dir_inode: Inode) -> Generator:
        """Coroutine: list entry names (reads all content blocks + atime)."""
        if not dir_inode.is_dir:
            raise NotADirectory("inode %d" % dir_inode.ino)
        yield from self._read_dir_blocks(dir_inode, len(dir_inode.dir_blocks))
        yield from self._update_atime(dir_inode)
        return sorted(dir_inode.entries)

    # -- attributes ---------------------------------------------------------------------------

    def getattr(self, inode: Inode) -> FileAttributes:
        """Return the stat-visible attributes of ``inode``."""
        return inode.attributes()

    def setattr(
        self,
        inode: Inode,
        mode: Optional[int] = None,
        uid: Optional[int] = None,
        gid: Optional[int] = None,
        size: Optional[int] = None,
        atime: Optional[float] = None,
        mtime: Optional[float] = None,
    ) -> Generator:
        """Coroutine: chmod/chown/utime/truncate-style attribute updates."""
        if size is not None:
            yield from self.truncate(inode, size)
        if mode is not None:
            inode.mode = mode
        if uid is not None:
            inode.uid = uid
        if gid is not None:
            inode.gid = gid
        if atime is not None:
            inode.atime = atime
        if mtime is not None:
            inode.mtime = mtime
        inode.touch_meta(self.sim.now)
        yield from self._dirty_inode(inode)
        return None

    def access(self, inode: Inode, want: int, uid: int = 0) -> bool:
        """Permission check (pure; root always passes)."""
        if uid == 0:
            return True
        mode = inode.mode
        if uid == inode.uid:
            mode >>= 6
        granted = mode & 0o7
        return (granted & want) == want

    def truncate(self, inode: Inode, size: int) -> Generator:
        """Coroutine: grow or shrink a regular file."""
        if not inode.is_file:
            raise IsADirectory("truncate on inode %d" % inode.ino)
        bs = self.params.block_size
        new_blocks = (size + bs - 1) // bs
        old_blocks = len(inode.block_map)
        if new_blocks < old_blocks:
            doomed = inode.block_map[new_blocks:]
            del inode.block_map[new_blocks:]
            doomed = [b for b in doomed if b >= 0]
            needed_maps = self._map_blocks_needed(new_blocks)
            if needed_maps < len(inode.map_blocks):
                doomed += inode.map_blocks[needed_maps:]
                del inode.map_blocks[needed_maps:]
            if doomed:
                yield from self._free_blocks(doomed)
        inode.size = size
        inode.mtime = self.sim.now
        inode.touch_meta(self.sim.now)
        yield from self._dirty_inode(inode)
        return None

    # -- file data -----------------------------------------------------------------------------

    def read_file(self, inode: Inode, offset: int, length: int) -> Generator:
        """Coroutine: read ``length`` bytes at ``offset``; returns bytes read."""
        if not inode.is_file:
            raise IsADirectory("read on inode %d" % inode.ino)
        if offset >= inode.size:
            return 0
        length = min(length, inode.size - offset)
        if length <= 0:
            return 0
        yield from self._charge(
            self.cpu_params.vfs_op + self.cpu_params.copy_per_byte * length
        )
        bs = self.params.block_size
        first = offset // bs
        last = (offset + length - 1) // bs
        yield from self._read_map_blocks(inode, first, last - first + 1)
        physical = [inode.block_map[i] for i in range(first, last + 1)]
        for run_start, run_len in _physical_runs(physical):
            yield from self.cache.read_range(run_start, run_len)
        self._maybe_readahead(inode, first, last)
        if self.params.atime_updates:
            yield from self._update_atime(inode)
        return length

    def write_file(self, inode: Inode, offset: int, length: int) -> Generator:
        """Coroutine: write ``length`` bytes at ``offset`` (allocating)."""
        if not inode.is_file:
            raise IsADirectory("write on inode %d" % inode.ino)
        if length <= 0:
            return 0
        yield from self._charge(
            self.cpu_params.vfs_op + self.cpu_params.copy_per_byte * length
        )
        bs = self.params.block_size
        first = offset // bs
        last = (offset + length - 1) // bs
        yield from self._ensure_mapped(inode, first, last)
        physical = [inode.block_map[i] for i in range(first, last + 1)]
        for run_start, run_len in _physical_runs(physical):
            yield from self.cache.write_range(run_start, run_len)
            for block in range(run_start, run_start + run_len):
                self.journal.add_ordered_data(block)
        if offset + length > inode.size:
            inode.size = offset + length
        inode.mtime = self.sim.now
        inode.touch_meta(self.sim.now)
        yield from self._dirty_inode(inode)
        return length

    def fsync(self, inode: Inode) -> Generator:
        """Coroutine: commit the journal and flush the file's dirty data."""
        yield from self.journal.commit()
        blocks = [b for b in inode.block_map if b >= 0]
        yield from self.cache.flush(blocks)
        return None

    # -- internals -----------------------------------------------------------------------------

    def _ensure_absent(self, dir_inode: Inode, name: str) -> Generator:
        try:
            yield from self.dir_lookup(dir_inode, name)
        except FileNotFound:
            return None
        raise FileExists(name)

    def _map_blocks_needed(self, nblocks: int) -> int:
        if nblocks <= DIRECT_BLOCKS:
            return 0
        return -(-(nblocks - DIRECT_BLOCKS) // POINTERS_PER_MAP_BLOCK)

    def _read_map_blocks(self, inode: Inode, first: int, count: int) -> Generator:
        for block in inode.map_blocks_for_range(first, count):
            yield from self.cache.read(block)
        return None

    def _ensure_mapped(self, inode: Inode, first: int, last: int) -> Generator:
        """Allocate data blocks (and pointer blocks) for logicals [first, last]."""
        # Extend the map with holes up to `last`.
        while len(inode.block_map) <= last:
            inode.block_map.append(-1)
        needed_maps = self._map_blocks_needed(last + 1)
        if needed_maps > len(inode.map_blocks):
            count = needed_maps - len(inode.map_blocks)
            goal = inode.map_blocks[-1] + 1 if inode.map_blocks else None
            new_maps = yield from self._allocate_blocks(count, goal)
            inode.map_blocks.extend(new_maps)
            for block in new_maps:
                yield from self.cache.write(block)
                self.journal.add_metadata(block)
        missing = [i for i in range(first, last + 1) if inode.block_map[i] < 0]
        if missing:
            goal = None
            before = missing[0] - 1
            if before >= 0 and before < len(inode.block_map) and inode.block_map[before] >= 0:
                goal = inode.block_map[before] + 1
            new_blocks = yield from self._allocate_blocks(len(missing), goal)
            for logical, physical in zip(missing, new_blocks):
                inode.block_map[logical] = physical
            # Updated pointer blocks are meta-data.
            touched = inode.map_blocks_for_range(missing[0], missing[-1] - missing[0] + 1)
            for block in touched:
                yield from self.cache.write(block)
                self.journal.add_metadata(block)
        return None

    def _maybe_readahead(self, inode: Inode, first: int, last: int) -> None:
        """Pipelined sequential prefetch: issue, do not wait."""
        if self.readahead_blocks <= 0:
            return
        previous = self._last_read_logical.get(inode.ino)
        self._last_read_logical[inode.ino] = last
        if previous is None or first != previous + 1:
            return  # not sequential
        limit = min(last + self.readahead_blocks, len(inode.block_map) - 1)
        ahead = [
            inode.block_map[i]
            for i in range(last + 1, limit + 1)
            if inode.block_map[i] >= 0 and not self.cache.contains(inode.block_map[i])
        ]
        for run_start, run_len in _physical_runs(ahead):
            self.sim.spawn(
                self._readahead(run_start, run_len),
                name=self.name + ".readahead",
            )

    def _readahead(self, start: int, count: int) -> Generator:
        # BlockCache.read_range is an eager call: wrapped, its cache scan
        # runs at this process's first resume, not at spawn time.
        yield from self.cache.read_range(start, count)

    def _update_atime(self, inode: Inode) -> Generator:
        if not self.params.atime_updates:
            return None
        inode.atime = self.sim.now
        yield from self._dirty_inode(inode)
        return None

    def _charge(self, cost: float) -> Iterable[Any]:
        """Charge filesystem CPU; an eager call, ``yield from`` the result."""
        if self.cpu is not None and cost > 0:
            return self.cpu.use(cost)
        return ()


def _physical_runs(blocks: List[int]) -> List[Tuple[int, int]]:
    """Maximal contiguous runs of physical block numbers, in order."""
    runs: List[Tuple[int, int]] = []
    for block in blocks:
        if block < 0:
            continue
        if runs and runs[-1][0] + runs[-1][1] == block:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((block, 1))
    return runs
