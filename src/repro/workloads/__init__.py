"""Workload generators for every experiment in the paper's evaluation.

The names resolve lazily (:mod:`repro._lazy`): a run loads the modules
of the workloads it uses and no other.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "kernel_tree": ("KernelTreeOps", "KernelTreeResult", "TreeSpec"),
    "microbench": ("BATCH_OPS", "SYSCALL_OPS", "SyscallMicrobench",
                   "run_batching_sweep", "run_depth_sweep",
                   "run_io_size_sweep", "run_syscall_table"),
    "postmark": ("PostMark", "PostmarkResult"),
    "seqrand": ("IoResult", "SeqRandWorkload", "run_latency_sweep",
                "run_table4"),
    "tpcc": ("OltpResult", "TpccWorkload"),
    "tpch": ("DssResult", "TpchWorkload"),
})
