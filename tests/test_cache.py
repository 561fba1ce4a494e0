"""Unit and property tests for the caching layer."""

from hypothesis import given, settings, strategies as st

from repro.cache import BlockCache, LruDict, PageCache
from repro.core.params import DiskParams
from repro.sim import Simulator
from repro.storage import Disk


# ---------------------------------------------------------------- LruDict

def test_lru_eviction_order():
    lru = LruDict(2)
    assert lru.put("a", 1) is None
    assert lru.put("b", 2) is None
    assert lru.put("c", 3) == ("a", 1)


def test_lru_get_refreshes_recency():
    lru = LruDict(2)
    lru.put("a", 1)
    lru.put("b", 2)
    lru.get("a")
    assert lru.put("c", 3) == ("b", 2)


def test_lru_peek_does_not_refresh():
    lru = LruDict(2)
    lru.put("a", 1)
    lru.put("b", 2)
    lru.peek("a")
    assert lru.put("c", 3) == ("a", 1)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["put", "get", "pop"]),
                              st.integers(0, 20)), max_size=120),
       capacity=st.integers(1, 8))
def test_lru_never_exceeds_capacity(ops, capacity):
    lru = LruDict(capacity)
    for op, key in ops:
        if op == "put":
            lru.put(key, key)
        elif op == "get":
            lru.get(key)
        else:
            lru.pop(key)
        assert len(lru) <= capacity


# ---------------------------------------------------------------- BlockCache

def _cache(sim, blocks=256, **kwargs):
    disk = Disk(sim, DiskParams(write_back_cache=False))
    cache = BlockCache(sim, disk, capacity_bytes=blocks * 4096,
                       start_flusher=False, **kwargs)
    return disk, cache


def test_read_miss_then_hit(sim):
    disk, cache = _cache(sim)

    def work():
        yield from cache.read(10)
        yield from cache.read(10)

    sim.run_process(work())
    assert disk.stats.read_ops == 1
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_contiguous_misses_merge_into_one_device_read(sim):
    disk, cache = _cache(sim)

    def work():
        yield from cache.read_range(100, 16)

    sim.run_process(work())
    assert disk.stats.read_ops == 1
    assert disk.stats.blocks_read == 16


def test_write_is_deferred_until_flush(sim):
    disk, cache = _cache(sim)

    def work():
        yield from cache.write(5)
        assert disk.stats.write_ops == 0
        yield from cache.sync()

    sim.run_process(work())
    assert disk.stats.write_ops == 1
    assert cache.dirty_blocks == 0


def test_flush_coalesces_adjacent_dirty_blocks(sim):
    disk, cache = _cache(sim)

    def work():
        for block in (7, 5, 6, 20):
            yield from cache.write(block)
        yield from cache.sync()

    sim.run_process(work())
    assert disk.stats.write_ops == 2   # [5..7] and [20]
    assert disk.stats.blocks_written == 4


def test_flush_respects_coalescing_cap(sim):
    disk, cache = _cache(sim, max_coalesced_bytes=2 * 4096)

    def work():
        yield from cache.write_range(0, 8)
        yield from cache.sync()

    sim.run_process(work())
    assert disk.stats.write_ops == 4


def test_write_through_bypasses_dirty_state(sim):
    disk, cache = _cache(sim)

    def work():
        yield from cache.write_through(30, 2)

    sim.run_process(work())
    assert disk.stats.write_ops == 1
    assert cache.dirty_blocks == 0
    assert cache.contains(30)


def test_discard_drops_dirty_without_io(sim):
    disk, cache = _cache(sim)

    def work():
        yield from cache.write_range(0, 4)
        cache.discard(range(0, 4))
        yield from cache.sync()

    sim.run_process(work())
    assert disk.stats.write_ops == 0


def test_mark_clean_removes_from_flusher(sim):
    disk, cache = _cache(sim)

    def work():
        yield from cache.write(9)
        cache.mark_clean([9])
        yield from cache.sync()

    sim.run_process(work())
    assert disk.stats.write_ops == 0
    assert cache.contains(9)


def test_dirty_eviction_forces_writeback(sim):
    disk, cache = _cache(sim, blocks=4)

    def work():
        for block in range(8):
            yield from cache.write(block)
        yield sim.timeout(1)

    sim.run_process(work())
    sim.run()
    assert disk.stats.write_ops >= 1


def test_invalidate_all_loses_everything(sim):
    disk, cache = _cache(sim)

    def work():
        yield from cache.read(3)
        cache.invalidate_all()
        yield from cache.read(3)

    sim.run_process(work())
    assert disk.stats.read_ops == 2


def test_inflight_read_deduplicated(sim):
    disk, cache = _cache(sim)

    def reader():
        yield from cache.read(77)

    sim.spawn(reader())
    sim.spawn(reader())
    sim.run()
    assert disk.stats.read_ops == 1


def test_dirty_throttling_blocks_writer(sim):
    disk, cache = _cache(sim, blocks=16)
    limit = cache.dirty_limit

    def work():
        for block in range(limit + 4):
            yield from cache.write(block)
        return sim.now

    finished = sim.run_process(work())
    assert finished > 0.0  # had to wait for at least one flush


# ------------------------------------------------- BlockCache eager calls


def _eager_scenario():
    """Misses, in-flight joins, hits and throttled writes on one cache.

    Returns each process's wake-up ``(tag, time)``, the cache and disk
    tallies, the dirty set and the kernel's record count: everything the
    eager ``read_range``/``write_range`` must leave as the coroutine
    versions had it.
    """
    sim = Simulator()
    disk, cache = _cache(sim, blocks=32)
    limit = cache.dirty_limit
    woke = []

    def reader(tag, start, count, delay):
        if delay:
            yield sim.timeout(delay)
        yield from cache.read_range(start, count)
        woke.append((tag, sim.now))

    def writer(tag, start, count, delay):
        if delay:
            yield sim.timeout(delay)
        yield from cache.write_range(start, count)
        woke.append((tag, sim.now))

    sim.spawn(reader("miss", 0, 4, 0.0))
    sim.spawn(reader("inflight", 2, 4, 0.0))    # joins 2-3, fetches 4-5
    sim.spawn(reader("hit", 0, 6, 1.0))
    sim.spawn(reader("single", 9, 1, 1.0))
    sim.spawn(writer("below", 100, 2, 0.5))
    sim.spawn(writer("fill", 200, limit - 2, 0.6))  # reaches the limit
    sim.spawn(writer("throttled", 300, 1, 0.7))     # waits for the flush
    sim.spawn(writer("after-flush", 301, 3, 0.71))
    sim.run()
    stats = cache.stats
    return {
        "woke": woke,
        "cache": (stats.hits, stats.misses, stats.insertions, stats.evictions),
        "dirty": sorted(cache._dirty),
        "disk": (disk.stats.read_ops, disk.stats.write_ops),
        "sequence": sim._sequence,
    }


def test_eager_cache_calls_keep_recorded_outcome():
    # Recorded from the coroutine versions of read_range/write_range.
    assert _eager_scenario() == {
        "woke": [("miss", 0.001290625), ("inflight", 0.0023859375),
                 ("below", 0.5), ("fill", 0.6),
                 ("throttled", 0.7042422357460176), ("after-flush", 0.71),
                 ("hit", 1.0), ("single", 1.0016485642948292)],
        "cache": (8, 7, 23, 0),
        "dirty": [300, 301, 302, 303],
        "disk": (3, 2),
        "sequence": 44,
    }


def test_read_range_hit_acts_at_call_and_returns_nothing_to_wait_for(sim):
    disk, cache = _cache(sim)

    def warm():
        yield from cache.read_range(10, 3)

    sim.run_process(warm())
    hits = cache.stats.hits
    assert cache.read_range(10, 3) == ()
    assert cache.read(11) == ()
    assert cache.stats.hits == hits + 4
    assert disk.stats.read_ops == 1


def test_write_range_below_limit_dirties_at_call(sim):
    disk, cache = _cache(sim)
    assert cache.write_range(40, 2) == ()
    assert cache.write(50) == ()
    assert sorted(cache._dirty) == [40, 41, 50]
    assert sim._sequence == 0     # nothing scheduled, nothing to wait for


# ---------------------------------------------------------------- PageCache

def test_page_cache_hit_miss_accounting():
    pages = PageCache(capacity_pages=64)
    assert pages.lookup(1, 0) is None
    pages.insert(1, 0, now=0.0)
    assert pages.lookup(1, 0) is not None
    assert pages.stats.hits == 1
    assert pages.stats.misses == 1


def test_page_cache_dirty_tracking():
    pages = PageCache(capacity_pages=64)
    pages.insert(1, 0, now=0.0, dirty=True)
    pages.insert(1, 1, now=0.0, dirty=True)
    pages.insert(2, 0, now=0.0)
    assert pages.dirty_pages() == [(1, 0), (1, 1)]
    assert pages.dirty_pages(2) == []
    pages.mark_clean(1, 0)
    assert pages.dirty_pages() == [(1, 1)]


def test_page_cache_eviction_callback():
    evicted = []
    pages = PageCache(capacity_pages=2, on_evict_dirty=lambda f, i: evicted.append((f, i)))
    pages.insert(1, 0, now=0.0, dirty=True)
    pages.insert(1, 1, now=0.0)
    pages.insert(1, 2, now=0.0)
    assert evicted == [(1, 0)]


def test_page_cache_invalidate_file():
    pages = PageCache(capacity_pages=16)
    for index in range(4):
        pages.insert(7, index, now=0.0, dirty=True)
    pages.insert(8, 0, now=0.0)
    pages.invalidate_file(7)
    assert pages.dirty_count == 0
    assert pages.peek(8, 0) is not None


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(
    st.tuples(st.integers(1, 4), st.integers(0, 10), st.booleans()),
    max_size=80,
))
def test_page_cache_dirty_set_consistency(ops):
    """Every dirty key must refer to a resident, dirty page."""
    pages = PageCache(capacity_pages=16)
    for file_id, index, dirty in ops:
        pages.insert(file_id, index, now=0.0, dirty=dirty)
    for file_id, index in pages.dirty_pages():
        page = pages.peek(file_id, index)
        assert page is not None and page.dirty


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["insert", "dirty", "clean", "lookup",
                               "invalidate", "clear"]),
              st.integers(1, 4), st.integers(0, 9)),
    max_size=120,
), capacity=st.integers(1, 12))
def test_page_cache_file_index_matches_brute_force_scan(ops, capacity):
    """Inserts, evictions and invalidations across several files: the
    per-file index drops exactly the pages a scan of the whole cache
    would, keeps the survivors' LRU order, and answers ``len`` and
    ``dirty_pages`` as a scan does."""
    pages = PageCache(capacity_pages=capacity)
    for op, file_id, index in ops:
        if op in ("insert", "dirty"):
            pages.insert(file_id, index, now=0.0, dirty=op == "dirty")
        elif op == "clean":
            pages.mark_clean(file_id, index)
        elif op == "lookup":
            pages.lookup(file_id, index)
        elif op == "invalidate":
            survivors = [key for key in pages._pages if key[0] != file_id]
            pages.invalidate_file(file_id)
            assert list(pages._pages) == survivors
        else:
            pages.clear()
        resident = list(pages._pages)
        assert len(pages) == len(resident)
        # The index holds exactly the resident pages: evicted or dropped
        # pages leave no stale entries behind.
        by_file = {}
        for key_file, key_index in resident:
            by_file.setdefault(key_file, set()).add(key_index)
        assert pages._by_file == by_file
        dirty = [key for key in resident if pages.peek(*key).dirty]
        assert pages.dirty_pages() == sorted(dirty)
        for other in range(1, 5):
            assert pages.dirty_pages(other) == sorted(
                key for key in dirty if key[0] == other)
