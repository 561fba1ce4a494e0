"""Core: the comparison harness, counters, and testbed parameters.

The names resolve lazily (:mod:`repro._lazy`).  The comparison harness
sits at the top of the dependency graph: substrate modules import
``repro.core.params`` and ``repro.core.counters``, and an eager import of
the harness here would make that circular.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "counters": ("CountersSnapshot", "MessageCounters"),
    "params": ("CacheParams", "CpuParams", "DiskParams", "Ext3Params",
               "IscsiParams", "NetworkParams", "NfsParams", "RaidParams",
               "TestbedParams"),
    "comparison": ("STACK_KINDS", "StorageStack", "make_stack"),
    "multiclient": ("SharedNfsTestbed",),
})
