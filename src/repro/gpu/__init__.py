"""SIMT execution substrate: the GPU the paper's cache policies run in.

Public surface: :class:`GPUConfig` (Table 1), the kernel/ISA model used
by workloads, and :class:`GpuSimulator`.
"""

from repro.gpu.config import BASELINE_CONFIG, SCALED_CONFIG, GPUConfig, L1DConfig
from repro.gpu.coalescer import coalesce, coalesce_count
from repro.gpu.isa import (
    AffineLanes, ComputeOp, MemOp, compute, load, store, trace_stats,
)
from repro.gpu.kernel import Kernel, KernelSequence, as_kernel_list
from repro.gpu.scheduler import GtoScheduler, LrrScheduler, make_scheduler
from repro.gpu.simulator import DeadlockError, GpuSimulator, SimResult
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.warp import Warp

__all__ = [
    "GPUConfig",
    "L1DConfig",
    "BASELINE_CONFIG",
    "SCALED_CONFIG",
    "coalesce",
    "coalesce_count",
    "AffineLanes",
    "ComputeOp",
    "MemOp",
    "compute",
    "load",
    "store",
    "trace_stats",
    "Kernel",
    "KernelSequence",
    "as_kernel_list",
    "GtoScheduler",
    "LrrScheduler",
    "make_scheduler",
    "GpuSimulator",
    "SimResult",
    "DeadlockError",
    "StreamingMultiprocessor",
    "Warp",
]
