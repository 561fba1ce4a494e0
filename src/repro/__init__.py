"""repro — a simulation-based reproduction of
"A Performance Comparison of NFS and iSCSI for IP-Networked Storage"
(Radkov, Yin, Goyal, Sarkar, Shenoy — FAST 2004).

The package builds complete, instrumented models of both IP-storage
stacks of the paper — NFS v2/v3/v4 (file-access) and iSCSI over an
ext3-like client filesystem (block-access) — on a discrete-event
simulator, and re-runs every experiment in the paper's evaluation.

Quickstart
----------
>>> from repro import make_stack
>>> stack = make_stack("iscsi")
>>> client = stack.client
>>> def work():
...     yield from client.mkdir("/data")
...     fd = yield from client.creat("/data/hello")
...     yield from client.write(fd, 4096)
...     yield from client.close(fd)
>>> snap = stack.snapshot()
>>> stack.run(work())
>>> stack.quiesce()
>>> stack.delta(snap).messages  # SCSI commands this took
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

# The names resolve lazily (repro._lazy): ``import repro`` loads nothing
# else, and a stack loads only the layers its kind uses.
__all__, __getattr__ = lazy_exports(__name__, {
    "core.comparison": ("STACK_KINDS", "StorageStack", "make_stack"),
    "core.counters": ("CountersSnapshot", "MessageCounters"),
    "core.params": ("CacheParams", "CpuParams", "DiskParams", "Ext3Params",
                    "IscsiParams", "NetworkParams", "NfsParams",
                    "RaidParams", "TestbedParams"),
    "obs.tracer": ("Tracer",),
    "sim": ("Simulator",),
})
__all__.append("__version__")
