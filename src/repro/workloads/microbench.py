"""Micro-benchmarks: per-syscall network message overheads.

Reproduces the methodology of Section 4:

* **Tables 2-3** — the sixteen-plus system calls of Table 1, measured cold
  (fresh mount, server restarted) and warm (the call repeated with
  *similar but not identical* parameters, per the paper's footnote: name-
  creating ops reuse the parent with a new name; attribute ops repeat on
  the same object);
* **Figure 3** — iSCSI meta-data update aggregation: amortized messages
  per op for batches of 1..1024;
* **Figure 4** — message overhead vs. directory depth 0..16;
* **Figure 5** — message overhead vs. read/write size 128 B..64 KB.

Cold measurements include the deferred journal/write-back traffic the
operation provokes (the capture runs until the system quiesces); the
write-size sweep intentionally does *not* quiesce, matching the paper's
observation that v3/v4 asynchronous writes leave the capture window.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..core.comparison import StorageStack, make_stack
from ..core.params import TestbedParams

__all__ = [
    "SYSCALL_OPS",
    "SyscallMicrobench",
    "run_syscall_table",
    "run_batching_sweep",
    "run_depth_sweep",
    "run_io_size_sweep",
]

SYSCALL_OPS = [
    "mkdir", "chdir", "readdir", "symlink", "readlink", "unlink", "rmdir",
    "creat", "open", "link", "rename", "trunc", "chmod", "chown",
    "access", "stat", "utime",
]

#: ops whose warm repetition uses a fresh name; the rest repeat the object
_FRESH_NAME_OPS = {
    "mkdir", "symlink", "unlink", "rmdir", "creat", "link", "rename",
}


class SyscallMicrobench:
    """Cold/warm message counts for one syscall at one directory depth."""

    def __init__(self, kind: str, depth: int = 0,
                 params: Optional[TestbedParams] = None):
        self.kind = kind
        self.depth = depth
        self.params = params
        self.base = "/" + "/".join("dir%d" % i for i in range(1, depth + 1)) \
            if depth else ""

    # -- environment -----------------------------------------------------------

    def _fresh_stack(self) -> StorageStack:
        stack = make_stack(self.kind, self.params)
        stack.run(self._setup(stack.client), name="setup")
        stack.quiesce()
        return stack

    def _setup(self, c) -> Generator:
        """Create the directory chain and variant-0 prerequisites."""
        path = ""
        for i in range(1, self.depth + 1):
            path += "/dir%d" % i
            yield from c.mkdir(path)
        base = self.base
        yield from c.mkdir(base + "/subdir")
        yield from c.symlink("subdir", base + "/sl0")
        for v in (0, 1):
            fd = yield from c.creat(base + "/file%d" % v)
            yield from c.write(fd, 2048)
            yield from c.close(fd)
        yield from self._make_consumables(c, 0)
        return None

    def _make_consumables(self, c, v: int) -> Generator:
        """Objects an op run consumes (one set per variant)."""
        base = self.base
        fd = yield from c.creat(base + "/junk%d" % v)
        yield from c.close(fd)
        yield from c.mkdir(base + "/rd%d" % v)
        fd = yield from c.creat(base + "/rn%d" % v)
        yield from c.close(fd)
        return None

    def _op(self, c, op: str, variant: int) -> Generator:
        """Invoke ``op`` (variant 0 = first call, 1 = the warm repeat)."""
        base = self.base
        v = variant if op in _FRESH_NAME_OPS else 0
        if op == "mkdir":
            yield from c.mkdir(base + "/new%d" % v)
        elif op == "chdir":
            yield from c.chdir(base + "/subdir" if base else "/subdir")
        elif op == "readdir":
            yield from c.readdir(base + "/subdir")
        elif op == "symlink":
            yield from c.symlink("subdir", base + "/newsl%d" % v)
        elif op == "readlink":
            yield from c.readlink(base + "/sl0")
        elif op == "unlink":
            yield from c.unlink(base + "/junk%d" % v)
        elif op == "rmdir":
            yield from c.rmdir(base + "/rd%d" % v)
        elif op == "creat":
            fd = yield from c.creat(base + "/newf%d" % v)
            yield from c.close(fd)
        elif op == "open":
            fd = yield from c.open(base + "/file%d" % v)
            yield from c.close(fd)
        elif op == "link":
            yield from c.link(base + "/file0", base + "/ln%d" % v)
        elif op == "rename":
            yield from c.rename(base + "/rn%d" % v, base + "/rn%dx" % v)
        elif op == "trunc":
            yield from c.truncate(base + "/file0", 512 * variant)
        elif op == "chmod":
            yield from c.chmod(base + "/file0", 0o640 + variant)
        elif op == "chown":
            yield from c.chown(base + "/file0", variant + 1)
        elif op == "access":
            yield from c.access(base + "/file%d" % v)
        elif op == "stat":
            yield from c.stat(base + "/file%d" % v)
        elif op == "utime":
            yield from c.utime(base + "/file0")
        else:
            raise ValueError("unknown micro-benchmark op %r" % op)
        return None

    # -- measurements ----------------------------------------------------------------

    def measure_cold(self, op: str) -> int:
        """Messages for the op's first invocation after a cold mount."""
        stack = self._fresh_stack()
        stack.make_cold()
        snap = stack.snapshot()
        stack.run(self._op(stack.client, op, 0), name="cold-" + op)
        stack.quiesce()
        return stack.delta(snap).messages

    def measure_warm(self, op: str) -> int:
        """Messages for the repeat invocation (warm caches).

        Mirrors the paper's protocol: invoke on a cold cache, then repeat
        with similar-but-not-identical parameters.  The repeat's fresh
        consumables are created after the cold mount (so they are truly
        cached), and a few seconds elapse between the runs — long enough
        for NFS *file* attributes (3 s validity) to need revalidation but
        not directory entries (30 s), which is the regime the Table 3
        numbers reflect.
        """
        stack = self._fresh_stack()
        stack.make_cold()
        stack.run(self._op(stack.client, op, 0), name="prime-" + op)
        stack.run(self._make_consumables(stack.client, 1), name="prep")
        stack.quiesce()
        stack.run(_sleep(stack, 4.0), name="age")
        stack.quiesce()
        snap = stack.snapshot()
        stack.run(self._op(stack.client, op, 1), name="warm-" + op)
        stack.quiesce()
        return stack.delta(snap).messages


def run_syscall_table(
    kinds: Tuple[str, ...] = ("nfsv2", "nfsv3", "nfsv4", "iscsi"),
    depths: Tuple[int, ...] = (0, 3),
    ops: Optional[List[str]] = None,
    warm: bool = False,
    params: Optional[TestbedParams] = None,
) -> Dict[int, Dict[str, Dict[str, int]]]:
    """Compute a Table 2 (cold) or Table 3 (warm) equivalent.

    Returns ``{depth: {op: {kind: messages}}}``.
    """
    ops = ops if ops is not None else list(SYSCALL_OPS)
    table: Dict[int, Dict[str, Dict[str, int]]] = {}
    for depth in depths:
        table[depth] = {}
        for op in ops:
            row: Dict[str, int] = {}
            for kind in kinds:
                bench = SyscallMicrobench(kind, depth, params)
                if warm:
                    row[kind] = bench.measure_warm(op)
                else:
                    row[kind] = bench.measure_cold(op)
            table[depth][op] = row
    return table


BATCH_OPS = ["creat", "link", "rename", "chmod", "stat", "access", "write", "mkdir"]


def run_batching_sweep(
    op: str,
    batch_sizes: Tuple[int, ...] = (1, 4, 16, 64, 256, 1024),
    kind: str = "iscsi",
    params: Optional[TestbedParams] = None,
) -> Dict[int, float]:
    """Figure 3: amortized messages/op for batches of meta-data operations.

    Each batch starts from a cold cache; the whole batch (plus the flush it
    provokes) is counted and divided by the batch size.
    """
    if op not in BATCH_OPS:
        raise ValueError("op %r not in %s" % (op, BATCH_OPS))
    results: Dict[int, float] = {}
    for n in batch_sizes:
        stack = make_stack(kind, params)
        client = stack.client

        def setup(client=client, n=n):
            if op in ("link", "rename", "chmod", "stat", "access", "write"):
                fd = yield from client.creat("/seed")
                yield from client.write(fd, 1024)
                yield from client.close(fd)
            if op == "rename":
                for i in range(n):
                    fd = yield from client.creat("/r%d" % i)
                    yield from client.close(fd)
            if op == "write":
                fd = yield from client.creat("/wfile")
                yield from client.close(fd)
            return None

        stack.run(setup(), name="setup")
        stack.quiesce()
        stack.make_cold()
        snap = stack.snapshot()

        def batch(client=client, n=n):
            for i in range(n):
                if op == "creat":
                    fd = yield from client.creat("/b%d" % i)
                    yield from client.close(fd)
                elif op == "mkdir":
                    yield from client.mkdir("/d%d" % i)
                elif op == "link":
                    yield from client.link("/seed", "/l%d" % i)
                elif op == "rename":
                    yield from client.rename("/r%d" % i, "/r%dx" % i)
                elif op == "chmod":
                    yield from client.chmod("/seed", 0o600 + (i % 64))
                elif op == "stat":
                    yield from client.stat("/seed")
                elif op == "access":
                    yield from client.access("/seed")
            return None

        if op == "write":
            def batch(client=client, n=n):
                fd = yield from client.open("/wfile", 1)  # O_WRONLY
                for i in range(n):
                    yield from client.pwrite(fd, 512, (i % 8) * 512)
                yield from client.close(fd)
                return None

        stack.run(batch(), name="batch")
        stack.quiesce()
        results[n] = stack.delta(snap).messages / float(n)
    return results


def run_depth_sweep(
    op: str,
    kind: str,
    depths: Tuple[int, ...] = tuple(range(0, 17, 2)),
    warm: bool = False,
    params: Optional[TestbedParams] = None,
) -> Dict[int, int]:
    """Figure 4: messages vs. directory depth for one op and stack."""
    results: Dict[int, int] = {}
    for depth in depths:
        bench = SyscallMicrobench(kind, depth, params)
        if warm:
            results[depth] = bench.measure_warm(op)
        else:
            results[depth] = bench.measure_cold(op)
    return results


def run_io_size_sweep(
    kind: str,
    mode: str,
    sizes: Tuple[int, ...] = tuple(2 ** e for e in range(7, 17)),
    params: Optional[TestbedParams] = None,
) -> Dict[int, int]:
    """Figure 5: messages vs. I/O size.

    ``mode`` is ``"cold-read"``, ``"warm-read"``, or ``"cold-write"``.
    Reads measure the read() call against an already-open descriptor (plus
    any consistency traffic it provokes, quiesced); cold writes measure
    creat+write *without* quiescing — asynchronous write-back leaves the
    capture window, as the paper observed for v3/v4.
    """
    if mode not in ("cold-read", "warm-read", "cold-write"):
        raise ValueError("unknown mode %r" % mode)
    results: Dict[int, int] = {}
    for size in sizes:
        stack = make_stack(kind, params)
        client = stack.client

        if mode in ("cold-read", "warm-read"):
            def setup(client=client):
                fd = yield from client.creat("/data")
                yield from client.write(fd, 128 * 1024)
                yield from client.close(fd)
                fd = yield from client.open("/data")
                return fd

            fd = stack.run(setup(), name="setup")
            stack.quiesce()
            if mode == "cold-read":
                stack.drop_caches()
            else:
                # Warm: read the file fully first, then wait out the
                # attribute validity window (the paper's re-reads arrive
                # after prior runs), then measure.
                def prime(client=client, fd=fd):
                    yield from client.pread(fd, 128 * 1024, 0)
                    return None
                stack.run(prime(), name="prime")
                stack.quiesce()
                stack.run(_sleep(stack, 4.0), name="age")

            snap = stack.snapshot()

            def measure(client=client, fd=fd, size=size):
                yield from client.pread(fd, size, 0)
                return None

            stack.run(measure(), name=mode)
            stack.quiesce()
            results[size] = stack.delta(snap).messages
        else:  # cold-write
            stack.make_cold()
            snap = stack.snapshot()

            def measure(client=client, size=size):
                fd = yield from client.creat("/newfile")
                yield from client.write(fd, size)
                return fd

            stack.run(measure(), name=mode)
            # deliberately no quiesce: async write-back escapes the capture
            results[size] = stack.delta(snap).messages
    return results


def _sleep(stack: StorageStack, seconds: float) -> Generator:
    yield stack.sim.timeout(seconds)
    return None
