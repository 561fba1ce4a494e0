"""Unit tests for the ext3-like filesystem and its journal."""

import inspect

import pytest

from repro.fs import (
    DirectoryNotEmpty,
    Ext3Fs,
    FileExists,
    FileNotFound,
    IsADirectory,
    ROOT_INO,
    Vfs,
)
from repro.storage import Raid5Volume


@pytest.fixture
def fs(sim):
    raid = Raid5Volume(sim)
    filesystem = Ext3Fs(sim, raid, cache_bytes=64 * 1024 * 1024)
    sim.run_process(filesystem.mount())
    return filesystem


@pytest.fixture
def vfs(fs):
    return Vfs(fs)


def run(sim, gen):
    return sim.run_process(gen)


# ---------------------------------------------------------------- basics

def test_root_exists(fs):
    assert fs.inodes[ROOT_INO].is_dir


def test_create_and_lookup(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        inode = yield from fs.create(root, "hello")
        found = yield from fs.dir_lookup(root, "hello")
        return inode.ino, found

    ino, found = run(sim, work())
    assert ino == found


def test_create_duplicate_rejected(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        yield from fs.create(root, "x")
        yield from fs.create(root, "x")

    with pytest.raises(FileExists):
        run(sim, work())


def test_lookup_missing_raises(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        yield from fs.dir_lookup(root, "ghost")

    with pytest.raises(FileNotFound):
        run(sim, work())


def test_mkdir_updates_parent_nlink(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        before = root.nlink
        yield from fs.mkdir(root, "sub")
        return before, root.nlink

    before, after = run(sim, work())
    assert after == before + 1


def test_rmdir_refuses_nonempty(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        sub = yield from fs.mkdir(root, "sub")
        yield from fs.create(sub, "f")
        yield from fs.rmdir(root, "sub")

    with pytest.raises(DirectoryNotEmpty):
        run(sim, work())


def test_unlink_frees_inode_and_blocks(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        inode = yield from fs.create(root, "data")
        yield from fs.write_file(inode, 0, 64 * 1024)
        used_blocks = fs.block_alloc.used
        used_inodes = fs.inode_alloc.used
        yield from fs.unlink(root, "data")
        return used_blocks, fs.block_alloc.used, used_inodes, fs.inode_alloc.used

    blocks_before, blocks_after, inodes_before, inodes_after = run(sim, work())
    assert blocks_after < blocks_before
    assert inodes_after == inodes_before - 1


def test_hard_link_shares_inode(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        inode = yield from fs.create(root, "a")
        yield from fs.link(root, "b", inode)
        found = yield from fs.dir_lookup(root, "b")
        return inode.ino, found, inode.nlink

    ino, found, nlink = run(sim, work())
    assert found == ino and nlink == 2


def test_link_then_unlink_keeps_file(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        inode = yield from fs.create(root, "a")
        yield from fs.write_file(inode, 0, 4096)
        yield from fs.link(root, "b", inode)
        yield from fs.unlink(root, "a")
        still = yield from fs.dir_lookup(root, "b")
        return still, inode.nlink

    found, nlink = run(sim, work())
    assert nlink == 1
    assert found in fs.inodes


def test_rename_moves_entry(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        sub = yield from fs.mkdir(root, "sub")
        inode = yield from fs.create(root, "old")
        yield from fs.rename(root, "old", sub, "new")
        found = yield from fs.dir_lookup(sub, "new")
        return inode.ino, found, "old" in root.entries

    ino, found, still_there = run(sim, work())
    assert found == ino and not still_there


def test_rename_replaces_target(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        a = yield from fs.create(root, "a")
        b = yield from fs.create(root, "b")
        yield from fs.rename(root, "a", root, "b")
        found = yield from fs.dir_lookup(root, "b")
        return a.ino, found, b.ino in fs.inodes

    a_ino, found, b_alive = run(sim, work())
    assert found == a_ino and not b_alive


def test_symlink_roundtrip(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        yield from fs.symlink(root, "sl", "/target/path")
        ino = yield from fs.dir_lookup(root, "sl")
        inode = yield from fs.iget(ino)
        target = yield from fs.readlink(inode)
        return target

    assert run(sim, work()) == "/target/path"


def test_truncate_shrinks_and_frees(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        inode = yield from fs.create(root, "big")
        yield from fs.write_file(inode, 0, 100 * 4096)
        used = fs.block_alloc.used
        yield from fs.truncate(inode, 4096)
        return used, fs.block_alloc.used, inode.size

    used_before, used_after, size = run(sim, work())
    assert size == 4096
    assert used_after < used_before


def test_write_then_read_roundtrip_sizes(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        inode = yield from fs.create(root, "f")
        yield from fs.write_file(inode, 0, 10_000)
        got = yield from fs.read_file(inode, 0, 1 << 20)
        short = yield from fs.read_file(inode, 9_000, 5_000)
        return inode.size, got, short

    size, got, short = run(sim, work())
    assert size == 10_000
    assert got == 10_000
    assert short == 1_000


def test_sparse_write_allocates_only_touched_blocks(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        inode = yield from fs.create(root, "sparse")
        used = fs.block_alloc.used
        yield from fs.write_file(inode, 5 * 4096, 4096)
        return inode.size, fs.block_alloc.used - used, inode.block_map

    size, allocated, block_map = run(sim, work())
    assert size == 6 * 4096
    assert allocated == 1
    assert sum(1 for b in block_map if b >= 0) == 1


def test_sequential_writes_physically_contiguous(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        inode = yield from fs.create(root, "seq")
        for i in range(32):
            yield from fs.write_file(inode, i * 4096, 4096)
        return inode.block_map

    block_map = run(sim, work())
    deltas = [block_map[i + 1] - block_map[i] for i in range(31)]
    # At most one discontinuity (where the indirect pointer block was
    # allocated mid-stream); everything else is physically contiguous.
    assert sum(1 for d in deltas if d != 1) <= 1


def test_large_file_uses_pointer_blocks(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        inode = yield from fs.create(root, "huge")
        yield from fs.write_file(inode, 0, 64 * 4096)
        return inode.map_blocks

    map_blocks = run(sim, work())
    assert len(map_blocks) >= 1   # 64 blocks > 12 direct pointers


def test_write_to_directory_rejected(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        yield from fs.write_file(root, 0, 10)

    with pytest.raises(IsADirectory):
        run(sim, work())


def test_directory_spreading_vs_file_clustering(sim, fs):
    """Directories land in fresh inode-table blocks; files cluster."""
    def work():
        root = yield from fs.iget(ROOT_INO)
        d1 = yield from fs.mkdir(root, "d1")
        d2 = yield from fs.mkdir(d1, "d2")
        f1 = yield from fs.create(d1, "f1")
        f2 = yield from fs.create(d1, "f2")
        return d1.ino, d2.ino, f1.ino, f2.ino

    d1, d2, f1, f2 = run(sim, work())
    per_block = fs.params.inodes_per_block
    assert d1 // per_block != d2 // per_block   # spread (different parent)
    assert f1 // per_block == f2 // per_block   # clustering near d1


# ---------------------------------------------------------------- journal

def test_journal_aggregates_repeated_updates(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        inode = yield from fs.create(root, "f")
        for _ in range(50):
            yield from fs.setattr(inode, mode=0o600)
        return fs.journal.pending_metadata

    pending = run(sim, work())
    assert pending <= 8   # 50 updates collapse to a handful of blocks


def test_journal_commit_clears_transaction(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        yield from fs.create(root, "f")
        yield from fs.journal.commit()
        return fs.journal.pending_metadata, fs.journal.commits

    pending, commits = run(sim, work())
    assert pending == 0 and commits == 1


def test_journal_checkpoint_writes_in_place(sim, fs):
    def work():
        root = yield from fs.iget(ROOT_INO)
        yield from fs.create(root, "f")
        yield from fs.journal.commit()
        before = fs.device.stats.write_ops
        yield from fs.journal.checkpoint()
        return before, fs.device.stats.write_ops

    before, after = run(sim, work())
    assert after > before


def test_cold_remount_preserves_namespace(sim, fs):
    vfs = Vfs(fs)

    def work():
        yield from vfs.mkdir("/keep")
        fd = yield from vfs.creat("/keep/file")
        yield from vfs.write(fd, 8192)
        yield from vfs.close(fd)
        yield from vfs.remount_cold()
        st = yield from vfs.stat("/keep/file")
        return st.size

    assert run(sim, work()) == 8192


def test_fsync_flushes_file_data(sim, fs):
    vfs = Vfs(fs)

    def work():
        fd = yield from vfs.creat("/f")
        yield from vfs.write(fd, 16 * 4096)
        before = fs.device.stats.write_ops
        yield from vfs.fsync(fd)
        return before, fs.device.stats.write_ops

    before, after = run(sim, work())
    assert after > before
    assert fs.cache.dirty_blocks == 0 or fs.journal.pending_metadata == 0


def test_readahead_scans_the_cache_at_its_first_resume(sim):
    # BlockCache.read_range is an eager call.  The readahead must hand
    # spawn a generator that calls it, so the cache scan happens when the
    # new process first runs, as it did when read_range was a coroutine;
    # passing the eager call itself to spawn would scan at spawn time.
    fs = Ext3Fs(sim, Raid5Volume(sim), cache_bytes=64 * 1024 * 1024,
                readahead_blocks=8)
    sim.run_process(fs.mount())

    def setup():
        root = yield from fs.iget(ROOT_INO)
        inode = yield from fs.create(root, "seq")
        yield from fs.write_file(inode, 0, 16 * 4096)
        yield from fs.cache.sync()
        return inode

    inode = run(sim, setup())
    fs.cache.invalidate_all()
    fs._maybe_readahead(inode, 0, 0)        # the first read is not sequential
    assert not any(record[3].name == "ext3.readahead"
                   for record in sim.pending() if record[2] == 2)
    misses = fs.cache.stats.misses
    fs._maybe_readahead(inode, 1, 1)
    spawned = [record[3] for record in sim.pending()
               if record[2] == 2 and record[3].name == "ext3.readahead"]
    assert len(spawned) == 1
    generator = spawned[0]._generator
    assert inspect.getgeneratorstate(generator) == inspect.GEN_CREATED
    assert fs.cache.stats.misses == misses  # nothing scanned yet
    sim.run(until=sim.now + 1.0)            # the flusher never stops
    ahead = [inode.block_map[i] for i in range(2, 10)]
    assert fs.cache.stats.misses == misses + len(ahead)
    assert all(fs.cache.contains(block) for block in ahead)
