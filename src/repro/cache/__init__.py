"""Caching substrate: buffer cache, page cache, and policies.

The names resolve lazily (:mod:`repro._lazy`), so an iSCSI stack never
loads the NFS client's page cache.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "block_cache": ("BlockCache",),
    "page_cache": ("Page", "PageCache"),
    "policies": ("CacheStats", "LruDict"),
})
