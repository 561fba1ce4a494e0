"""File-page cache (the NFS client's data cache).

Pages are keyed by ``(file_id, page_index)``.  Each page remembers when it
was filled (for the NFS 30-second data-validity check) and whether it is
dirty (for the client's bounded async-write pool).  Protocol-specific
policies — revalidation, flush-on-limit — live in the NFS client; this
class is the bookkeeping container.  Like the block cache, it keeps its
pages in an ``OrderedDict`` in LRU order and touches it directly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Set, Tuple

from .policies import CacheStats

__all__ = ["Page", "PageCache"]

PageKey = Tuple[int, int]


class Page:
    """State of one cached file page."""

    __slots__ = ("filled_at", "dirty", "dirtied_at")

    def __init__(self, filled_at: float):
        self.filled_at = filled_at
        self.dirty = False
        self.dirtied_at = 0.0


class PageCache:
    """LRU cache of file pages with dirty-set tracking."""

    def __init__(
        self,
        capacity_pages: int,
        on_evict_dirty: Optional[Callable[[int, int], None]] = None,
        name: str = "pagecache",
    ):
        if capacity_pages < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.capacity = capacity_pages
        self.stats = CacheStats()
        # (file_id, index) -> page, least recently used first.
        self._pages: "OrderedDict[PageKey, Page]" = OrderedDict()
        self._dirty: Set[PageKey] = set()
        # file_id -> indices of its cached pages, so dropping one file
        # costs its own pages, not a scan of the whole cache.
        self._by_file: Dict[int, Set[int]] = {}
        self._on_evict_dirty = on_evict_dirty

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    def lookup(self, file_id: int, index: int) -> Optional[Page]:
        """Return the page (counting a hit/miss) or None."""
        key = (file_id, index)
        pages = self._pages
        if key in pages:
            pages.move_to_end(key)
            self.stats.hits += 1
            return pages[key]
        self.stats.misses += 1
        return None

    def peek(self, file_id: int, index: int) -> Optional[Page]:
        """Return the page without refreshing recency, or None."""
        return self._pages.get((file_id, index))

    def insert(self, file_id: int, index: int, now: float, dirty: bool = False) -> None:
        """Install a page filled at ``now`` (optionally dirty), evicting LRU."""
        key = (file_id, index)
        pages = self._pages
        existing = pages.get(key)
        if existing is not None:
            existing.filled_at = now
            if dirty and not existing.dirty:
                existing.dirty = True
                existing.dirtied_at = now
                self._dirty.add(key)
            pages.move_to_end(key)  # refresh recency
            return
        page = Page(now)
        if dirty:
            page.dirty = True
            page.dirtied_at = now
            self._dirty.add(key)
        self.stats.insertions += 1
        indices = self._by_file.get(file_id)
        if indices is None:
            self._by_file[file_id] = {index}
        else:
            indices.add(index)
        pages[key] = page
        if len(pages) > self.capacity:
            evicted_key, evicted_page = pages.popitem(last=False)
            self.stats.evictions += 1
            evicted_file, evicted_index = evicted_key
            indices = self._by_file[evicted_file]
            indices.discard(evicted_index)
            if not indices:
                del self._by_file[evicted_file]
            if evicted_page.dirty:
                self._dirty.discard(evicted_key)
                if self._on_evict_dirty is not None:
                    self._on_evict_dirty(*evicted_key)

    def mark_clean(self, file_id: int, index: int) -> None:
        """Clear a page's dirty state."""
        key = (file_id, index)
        page = self._pages.get(key)
        if page is not None:
            page.dirty = False
        self._dirty.discard(key)

    def dirty_pages(self, file_id: Optional[int] = None) -> List[PageKey]:
        """Dirty page keys, optionally restricted to one file, sorted."""
        if file_id is None:
            return sorted(self._dirty)
        return sorted(key for key in self._dirty if key[0] == file_id)

    def invalidate_file(self, file_id: int) -> None:
        """Drop every page of ``file_id`` (dirty pages are discarded)."""
        for index in self._by_file.pop(file_id, ()):
            key = (file_id, index)
            self._pages.pop(key, None)
            self._dirty.discard(key)

    def clear(self) -> None:
        """Drop every entry."""
        self._pages.clear()
        self._dirty.clear()
        self._by_file.clear()
