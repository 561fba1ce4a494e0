"""In-memory representation of on-disk inodes.

The simulator does not store file *contents*; an inode records metadata and
the logical→physical block map.  What makes it "on-disk" is the accounting:
touching an inode requires its inode-table block to be present in the buffer
cache, and 32 inodes share each 4 KB block (``Ext3Params.inodes_per_block``)
— the meta-data locality that the paper credits for iSCSI's warm-cache wins.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["FileType", "Inode", "FileAttributes"]

POINTERS_PER_MAP_BLOCK = 1024  # 4 KB of 4-byte block pointers
DIRECT_BLOCKS = 12             # classic ext2/3 direct pointers


class FileType:
    """The three object kinds the filesystem stores."""

    REGULAR = "file"
    DIRECTORY = "dir"
    SYMLINK = "symlink"


class FileAttributes:
    """The stat-visible attribute set (what NFS GETATTR returns)."""

    __slots__ = ("ino", "itype", "mode", "uid", "gid", "nlink", "size",
                 "atime", "mtime", "ctime")

    def __init__(self, ino, itype, mode, uid, gid, nlink, size, atime, mtime, ctime):
        self.ino = ino
        self.itype = itype
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.nlink = nlink
        self.size = size
        self.atime = atime
        self.mtime = mtime
        self.ctime = ctime


class Inode:
    """One filesystem object: metadata plus block map or directory entries."""

    __slots__ = (
        "ino", "itype", "mode", "uid", "gid", "nlink", "size",
        "atime", "mtime", "ctime",
        "block_map", "map_blocks",
        "entries", "slots", "dir_blocks",
        "symlink_target", "generation", "last_child_dir_ino",
    )

    def __init__(self, ino: int, itype: str, mode: int = 0o644,
                 uid: int = 0, gid: int = 0, now: float = 0.0):
        self.ino = ino
        self.itype = itype
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.nlink = 2 if itype == FileType.DIRECTORY else 1
        self.size = 0
        self.atime = now
        self.mtime = now
        self.ctime = now
        # Regular files: logical index -> physical block, plus pointer blocks.
        self.block_map: List[int] = []
        self.map_blocks: List[int] = []
        # Directories: name -> ino, slot order (None = hole), content blocks.
        self.entries: Dict[str, int] = {}
        self.slots: List[Optional[str]] = []
        self.dir_blocks: List[int] = []
        self.symlink_target: Optional[str] = None
        # Allocation hint: where this directory's last child directory's
        # inode landed (sibling directories cluster; see Ext3Fs).
        self.last_child_dir_ino: Optional[int] = None
        # Bumped on every meta-data change; lets caches detect staleness.
        self.generation = 0

    @property
    def is_dir(self) -> bool:
        return self.itype == FileType.DIRECTORY

    @property
    def is_file(self) -> bool:
        return self.itype == FileType.REGULAR

    @property
    def is_symlink(self) -> bool:
        return self.itype == FileType.SYMLINK

    def touch_meta(self, now: float) -> None:
        """Record a meta-data change (ctime + generation)."""
        self.ctime = now
        self.generation += 1

    def attributes(self) -> FileAttributes:
        """Return this inode's stat-visible attribute record."""
        return FileAttributes(
            ino=self.ino, itype=self.itype, mode=self.mode, uid=self.uid,
            gid=self.gid, nlink=self.nlink, size=self.size,
            atime=self.atime, mtime=self.mtime, ctime=self.ctime,
        )

    # -- block map helpers (regular files) -------------------------------------

    def map_block_index(self, logical: int) -> Optional[int]:
        """Which pointer-block (by list index) covers ``logical``; None if direct."""
        if logical < DIRECT_BLOCKS:
            return None
        return (logical - DIRECT_BLOCKS) // POINTERS_PER_MAP_BLOCK

    def map_blocks_for_range(self, start: int, count: int) -> List[int]:
        """Physical pointer blocks needed to map logicals [start, start+count)."""
        indices = set()
        for logical in (start, start + count - 1):
            idx = self.map_block_index(logical)
            if idx is not None:
                indices.add(idx)
        if len(indices) == 2:
            lo = self.map_block_index(start)
            hi = self.map_block_index(start + count - 1)
            indices.update(range(lo, hi + 1))
        return [self.map_blocks[i] for i in sorted(indices) if i < len(self.map_blocks)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Inode %d %s size=%d nlink=%d>" % (
            self.ino, self.itype, self.size, self.nlink)
