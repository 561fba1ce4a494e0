"""Host-time spans around the simulator's layers, installed from outside.

The simulator is not edited: :func:`install_spans` replaces, for the
duration of a ``with`` block, every public method of every class defined
in a layer's modules with a wrapper that records a span.  A layer is
``repro.<package>[.<module>]`` as named in :data:`LAYER_MODULES`.

* A plain method's span covers the call.
* A generator method (the simulator's coroutines) returns a
  :class:`GenSpan`, whose span covers each *resumption* of the wrapped
  generator, not the call that created it.
* ``Simulator.spawn`` wraps the spawned generator the same way and names
  its span after the module that defined the generator, so daemon
  processes the kernel resumes directly (NFS write-back, RPC dispatch and
  serve loops, journal commit, cache flusher) bill their own layer rather
  than ``sim.kernel``.

Self time is a span's duration minus the part of it covered by child
spans.  All arithmetic is in integer nanoseconds, so the self times of
all layers plus the root remainder (``trace.unattributed``: time inside
the traced region that no layer span covers) sum exactly to the traced
total.  Wrappers only observe: the simulated outputs of a traced run are
byte-identical to a plain one, which the benchmark checks by digest.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import types
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYER_MODULES", "LAYERS", "ROOT", "GenSpan", "SpanRecorder",
           "install_spans", "layer_of"]

ROOT = "trace.unattributed"

#: Layer name -> the modules whose classes make up that layer.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "sim.kernel": ("repro.sim.kernel",),
    "sim.resources": ("repro.sim.resources",),
    "sim.stats": ("repro.sim.stats",),
    "net.transport": ("repro.net.transport", "repro.net.link",
                      "repro.net.message"),
    "net.rpc": ("repro.net.rpc",),
    "nfs.client": ("repro.nfs.client", "repro.nfs.protocol"),
    "nfs.server": ("repro.nfs.server",),
    "iscsi": ("repro.iscsi.initiator", "repro.iscsi.target",
              "repro.iscsi.scsi", "repro.iscsi.mcs"),
    "fs": ("repro.fs.ext3", "repro.fs.journal", "repro.fs.alloc",
           "repro.fs.inode", "repro.fs.vfs", "repro.fs.layout"),
    "cache": ("repro.cache.block_cache", "repro.cache.page_cache",
              "repro.cache.policies"),
    "storage": ("repro.storage.disk", "repro.storage.raid",
                "repro.storage.blockdev"),
    # Workload phases are nested generator functions, so this layer is
    # reached only through spawned processes; the workload classes' own
    # ``run`` is the traced region itself and stays unwrapped.
    "workloads": ("repro.workloads.tpcc", "repro.workloads.postmark"),
}

LAYERS: Tuple[str, ...] = tuple(LAYER_MODULES)

_MODULE_LAYER = {module: layer for layer, modules in LAYER_MODULES.items()
                 for module in modules}


def layer_of(module: str) -> Optional[str]:
    """The layer a module belongs to, or ``None`` for unlayered code."""
    return _MODULE_LAYER.get(module)


class SpanRecorder:
    """A stack of open spans and the self time each layer accumulated.

    ``start()`` opens the root span, ``stop()`` closes it and returns the
    traced total in nanoseconds.  ``calls[(caller, callee)]`` counts calls
    that cross from one layer into another.
    """

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.total_ns = 0
        self._stack: List[list] = [[ROOT, perf_counter_ns(), 0]]

    def start(self) -> None:
        self.self_ns.clear()
        self.calls.clear()
        self._stack = [[ROOT, perf_counter_ns(), 0]]

    def stop(self) -> int:
        if len(self._stack) != 1:
            raise RuntimeError("%d spans still open" % (len(self._stack) - 1))
        _, start, child = self._stack[0]
        self.total_ns = perf_counter_ns() - start
        self.self_ns[ROOT] += self.total_ns - child
        return self.total_ns

    def enter(self, layer: str) -> None:
        self._stack.append([layer, perf_counter_ns(), 0])

    def exit(self) -> None:
        layer, start, child = self._stack.pop()
        elapsed = perf_counter_ns() - start
        self.self_ns[layer] += elapsed - child
        self._stack[-1][2] += elapsed

    def note_call(self, layer: str) -> None:
        caller = self._stack[-1][0]
        if caller != layer:
            self.calls[caller, layer] += 1


class GenSpan:
    """A generator proxy whose every resumption is one span of ``layer``.

    It supports the protocol ``yield from`` and the kernel's ``Process``
    use (``send``/``throw``/``close``/``__next__``) and passes values,
    exceptions and the return value through unchanged.
    """

    __slots__ = ("_inner", "_layer", "_rec")

    def __init__(self, inner, layer: str, rec: SpanRecorder):
        self._inner = inner
        self._layer = layer
        self._rec = rec

    @property
    def __name__(self) -> str:  # Process names default to this
        return self._inner.__name__

    def __iter__(self) -> "GenSpan":
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        rec = self._rec
        rec.enter(self._layer)
        try:
            return self._inner.send(value)
        finally:
            rec.exit()

    def throw(self, typ, val=None, tb=None):
        rec = self._rec
        rec.enter(self._layer)
        try:
            return self._inner.throw(typ if val is None else val)
        finally:
            rec.exit()

    def close(self) -> None:
        self._inner.close()


def _wrap_function(fn, layer: str, rec: SpanRecorder):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def spanned_gen(*args, **kwargs):
            rec.note_call(layer)
            return GenSpan(fn(*args, **kwargs), layer, rec)
        return spanned_gen

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        rec.note_call(layer)
        rec.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit()
    return spanned


def _wrap_spawn(spawn, rec: SpanRecorder):
    @functools.wraps(spawn)
    def spanned_spawn(sim, generator, name=""):
        if not isinstance(generator, GenSpan):
            frame = getattr(generator, "gi_frame", None)
            layer = layer_of(frame.f_globals.get("__name__", "")) if frame else None
            if layer is not None:
                generator = GenSpan(generator, layer, rec)
        rec.enter("sim.kernel")
        try:
            return spawn(sim, generator, name)
        finally:
            rec.exit()
    return spanned_spawn


@contextmanager
def install_spans(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer's public methods with spans for ``rec``.

    Everything is restored on exit, even when the body raises.
    """
    saved: List[Tuple[type, str, object]] = []
    try:
        for layer, modules in LAYER_MODULES.items():
            if layer == "workloads":
                continue
            for module_name in modules:
                module = importlib.import_module(module_name)
                for cls in vars(module).values():
                    if not (isinstance(cls, type) and cls.__module__ == module_name):
                        continue
                    for name, fn in list(vars(cls).items()):
                        if name.startswith("_") or not isinstance(fn, types.FunctionType):
                            continue
                        if cls.__name__ == "Simulator" and name == "spawn":
                            wrapped = _wrap_spawn(fn, rec)
                        else:
                            wrapped = _wrap_function(fn, layer, rec)
                        saved.append((cls, name, fn))
                        setattr(cls, name, wrapped)
        yield rec
    finally:
        for cls, name, fn in reversed(saved):
            setattr(cls, name, fn)
