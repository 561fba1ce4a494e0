"""Cache bookkeeping primitives."""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Iterator, Optional, Tuple, TypeVar

__all__ = ["LruDict", "CacheStats"]

K = TypeVar("K")
V = TypeVar("V")


class CacheStats:
    """Hit/miss/eviction tallies shared by all cache flavors."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0


class LruDict(Generic[K, V]):
    """A mapping with least-recently-used ordering and a capacity bound.

    ``get`` refreshes recency; ``peek`` does not.  When full, ``put``
    returns the evicted ``(key, value)`` pair so the caller can handle
    dirty-eviction write-back.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict[K, V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[K]:
        return iter(self._data)

    def items(self) -> Iterator[Tuple[K, V]]:
        """Iterate ``(key, value)`` pairs in LRU-to-MRU order."""
        return iter(self._data.items())

    def get(self, key: K) -> Optional[V]:
        """Return the value for ``key`` (refreshing recency) or None."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def peek(self, key: K) -> Optional[V]:
        """Return the value for ``key`` without refreshing recency."""
        return self._data.get(key)

    def put(self, key: K, value: V) -> Optional[Tuple[K, V]]:
        """Insert/update; returns the evicted pair when the bound is hit."""
        if key in self._data:
            self._data[key] = value
            self._data.move_to_end(key)
            return None
        self._data[key] = value
        if len(self._data) > self.capacity:
            return self._data.popitem(last=False)
        return None

    def pop(self, key: K) -> Optional[V]:
        """Remove and return ``key``'s value, or None."""
        return self._data.pop(key, None)

    def clear(self) -> None:
        """Drop every entry."""
        self._data.clear()
