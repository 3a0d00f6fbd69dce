"""Functional (timing-free) cache simulation path.

Figures 3, 4 and 7 of the paper characterise *access streams*, not
timing, so they don't need the discrete-event machine.  This module
replays a workload's warp traces in an interleaving that mimics the GPU:
CTAs placed round-robin across SMs up to the residency limit, resident
warps served round-robin one memory instruction at a time (a good proxy
for fine-grained SIMT interleaving), each SM's stream fed to its own
reuse profiler.

The same pass also drives the Fig. 4 capacity sweep (16/32/64 KB
reuse-data miss rates, read off each reuse's LRU stack position).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.analysis.metrics import safe_ratio
from repro.analysis.reuse import ReuseProfiler
from repro.gpu.coalescer import coalesce
from repro.gpu.config import GPUConfig
from repro.gpu.isa import MemOp
from repro.workloads.base import Workload


def _mem_ops(trace) -> Iterator[MemOp]:
    for op in trace:
        if isinstance(op, MemOp):
            yield op


def interleaved_accesses(
    workload: Workload, config: GPUConfig
) -> Iterator[Tuple[int, int, int, bool, int]]:
    """Yield (sm_id, block_addr, pc, is_write, warp_id) in a GPU-like
    interleaving.

    CTA placement is round-robin with ``max_ctas_per_sm`` residency;
    resident warps rotate, each contributing one memory instruction's
    coalesced requests per turn; finished warps are replaced by warps of
    the next pending CTA on that SM.  ``warp_id`` is the kernel-global
    warp index (``cta * warps_per_cta + warp``), the identity the trace
    recorder persists.
    """
    line = config.l1d.line_size
    for kernel in workload.kernels():
        pending: List[deque] = [deque() for _ in range(config.num_sms)]
        for cta in range(kernel.num_ctas):
            pending[cta % config.num_sms].append(cta)
        max_resident_warps = min(
            config.max_warps_per_sm,
            config.max_ctas_per_sm * kernel.warps_per_cta,
        )
        active: List[List[Tuple[int, Iterator[MemOp]]]] = [
            [] for _ in range(config.num_sms)
        ]

        def refill(sm: int) -> None:
            while (
                pending[sm]
                and len(active[sm]) + kernel.warps_per_cta <= max_resident_warps
            ):
                cta = pending[sm].popleft()
                for w in range(kernel.warps_per_cta):
                    active[sm].append(
                        (
                            cta * kernel.warps_per_cta + w,
                            _mem_ops(kernel.warp_trace(cta, w)),
                        )
                    )

        for sm in range(config.num_sms):
            refill(sm)

        while True:
            for sm in range(config.num_sms):
                warps = active[sm]
                i = 0
                while i < len(warps):
                    warp_id, ops = warps[i]
                    op = next(ops, None)
                    if op is None:
                        warps.pop(i)
                        continue
                    for block in coalesce(op.addrs, line):
                        yield sm, block, op.pc, op.is_write, warp_id
                    i += 1
                refill(sm)
            if not any(
                active[sm] or pending[sm] for sm in range(config.num_sms)
            ):
                break


def profile_stream(
    records: Iterable[Tuple[int, int, int, bool, int]], config: GPUConfig
) -> ReuseProfiler:
    """RDDs and LRU stack positions of a stream's reads, one profiler
    per SM (L1Ds are private), merged.

    ``records`` are ``(sm_id, block_addr, pc, is_write, warp_id)``
    tuples: a live interleaving or a recorded trace's records.
    """
    geometry = config.l1d.geometry()
    profilers = [ReuseProfiler(geometry) for _ in range(config.num_sms)]
    for sm, block, pc, is_write, _warp in records:
        if not is_write:
            profilers[sm].observe(block, pc)
    merged = profilers[0]
    for p in profilers[1:]:
        merged.merge(p)
    return merged


def profile_reuse(
    workload: Workload, config: GPUConfig | None = None
) -> ReuseProfiler:
    """Aggregate RDD over all SMs (Figs. 3, 4 and 7 input)."""
    config = config or GPUConfig()
    return profile_stream(interleaved_accesses(workload, config), config)


def capacity_sweep(
    workload: Workload,
    sizes_kb: Tuple[int, ...] = (16, 32, 64),
    config: GPUConfig | None = None,
) -> Dict[int, Dict[str, float]]:
    """Fig. 4: reuse-data miss rate per L1D capacity.

    The capacities differ only in associativity, so one LRU
    stack-position pass over the stream answers all of them.
    """
    config = config or GPUConfig()
    profiler = profile_reuse(workload, config)
    sweep: Dict[int, Dict[str, float]] = {}
    for kb in sizes_kb:
        misses = profiler.reuse_misses(config.with_l1d_size_kb(kb).l1d.assoc)
        sweep[kb] = {
            "accesses": profiler.accesses,
            "compulsory": profiler.compulsory,
            "reuse_accesses": profiler.reuses,
            "reuse_misses": misses,
            "reuse_miss_rate": safe_ratio(misses, profiler.reuses),
        }
    return sweep
