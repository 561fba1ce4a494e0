"""Syscall-level tracing proxy.

The root of every causal tree is the system call the workload issued —
that is where the paper's tables start counting.  Rather than instrument
the two client implementations (:class:`~repro.fs.vfs.Vfs` and
:class:`~repro.nfs.client.NfsClient`) a :class:`TracedClient` wraps
whichever one the stack built and brackets each syscall coroutine in a
``syscall:<name>`` span, using the tracer attached to the simulator.
With tracing disabled the stack exposes the raw client object, so the
untraced path is bit-identical to an uninstrumented build.
"""

from __future__ import annotations

from typing import Any, Generator

__all__ = ["TracedClient", "SYSCALL_NAMES"]

# The coroutine syscalls shared by both client surfaces.  ``lseek`` is a
# plain function (no I/O) and stays unwrapped; lifecycle helpers
# (quiesce/drop_caches/remount_cold) are harness plumbing, not syscalls.
SYSCALL_NAMES = frozenset({
    "mkdir", "rmdir", "chdir", "readdir", "symlink", "readlink",
    "creat", "open", "close", "unlink", "link", "rename", "truncate",
    "chmod", "chown", "access", "stat", "utime", "read", "write",
    "pread", "pwrite", "fstat", "fsync",
})


class TracedClient:
    """Wraps a stack client; each syscall coroutine runs under a span.

    Every attribute not in :data:`SYSCALL_NAMES` is forwarded verbatim, so
    the proxy is a drop-in replacement for the wrapped client (workloads,
    quiesce, and fd bookkeeping all pass straight through).
    """

    def __init__(self, client: Any, sim: Any, track: str = "client"):
        self._client = client
        self._sim = sim
        self._track = track

    @property
    def wrapped(self) -> Any:
        """The underlying client object."""
        return self._client

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._client, name)
        if name in SYSCALL_NAMES:
            sim = self._sim
            track = self._track

            def traced_syscall(*args: Any, **kwargs: Any) -> Generator:
                tracer = sim.tracer
                if tracer is not None:
                    return tracer.wrap(
                        "syscall:" + name, attr(*args, **kwargs),
                        cat="syscall", track=track,
                    )
                return attr(*args, **kwargs)

            traced_syscall.__name__ = name
            return traced_syscall
        return attr
