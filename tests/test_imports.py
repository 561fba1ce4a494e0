"""The import gate: a stack loads only the layers its kind runs.

Each case builds one stack in a fresh interpreter (``import repro;
repro.make_stack(kind)``) and compares the ``repro`` modules it loaded
with a pinned list: the other protocol's modules, pNFS, MC/S, the
client-side VFS of an NFS stack, the observability tooling and the
workloads stay unloaded unless the run uses them.  A module that starts
loading everywhere (an eager import put back at the top of
``core/comparison.py``, say) fails the gate; a module a change really
needs is added to the list here.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys

import pytest

from repro import STACK_KINDS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

PROGRAM = """
import sys
import repro
repro.make_stack(%s)
print(" ".join(sorted(name for name in sys.modules
                      if name == "repro" or name.startswith("repro."))))
"""

# What every stack loads: the harness, the simulator, the network, the
# storage, the buffer cache and ext3 (at the server or at the client).
COMMON = [
    "repro", "repro._lazy",
    "repro.cache", "repro.cache.block_cache", "repro.cache.policies",
    "repro.client", "repro.client.host",
    "repro.core", "repro.core.comparison", "repro.core.counters",
    "repro.core.params",
    "repro.fs", "repro.fs.alloc", "repro.fs.errors", "repro.fs.ext3",
    "repro.fs.inode", "repro.fs.journal", "repro.fs.layout",
    "repro.net", "repro.net.link", "repro.net.message", "repro.net.rpc",
    "repro.net.transport",
    "repro.sim", "repro.sim.kernel", "repro.sim.resources",
    "repro.sim.stats",
    "repro.storage", "repro.storage.blockdev", "repro.storage.disk",
    "repro.storage.raid",
]
NFS = sorted(COMMON + ["repro.cache.page_cache", "repro.nfs",
                       "repro.nfs.client", "repro.nfs.protocol",
                       "repro.nfs.server"])
ISCSI = sorted(COMMON + ["repro.fs.vfs", "repro.iscsi",
                         "repro.iscsi.initiator", "repro.iscsi.scsi",
                         "repro.iscsi.target"])
PINNED = {"nfsv2": NFS, "nfsv3": NFS, "nfsv4": NFS, "nfs-enhanced": NFS,
          "iscsi": ISCSI}
TRACER = ["repro.obs", "repro.obs.proxy", "repro.obs.tracer"]


@functools.lru_cache(maxsize=None)
def loaded(arguments: str):
    """The ``repro`` modules loaded by ``repro.make_stack(<arguments>)``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROGRAM % arguments],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_a_stack_loads_its_pinned_modules(kind):
    assert loaded(repr(kind)) == PINNED[kind]


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_a_stack_loads_no_other_protocol_tooling_or_workload(kind):
    unused = ["repro.obs", "repro.workloads"]
    if kind == "iscsi":
        unused += ["repro.nfs"]
    else:
        unused += ["repro.iscsi", "repro.nfs.pnfs", "repro.fs.vfs"]
    stray = [name for name in loaded(repr(kind))
             if any(name == prefix or name.startswith(prefix + ".")
                    for prefix in unused)]
    assert stray == []


@pytest.mark.parametrize("kind", ["nfsv3", "iscsi"])
def test_tracing_adds_only_the_tracer_and_proxy(kind):
    traced = loaded("%r, trace=True" % kind)
    assert traced == sorted(PINNED[kind] + TRACER)


def test_mcs_adds_only_its_session_module():
    mcs = loaded('"iscsi", params=repro.TestbedParams('
                 'iscsi=repro.IscsiParams(connections=2))')
    assert mcs == sorted(ISCSI + ["repro.iscsi.mcs"])
