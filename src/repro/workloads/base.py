"""Workload model base classes.

Each of the paper's 18 benchmarks (Table 2) is modelled as a
:class:`Workload` producing one or more :class:`~repro.gpu.kernel.Kernel`
objects whose warp traces reproduce the benchmark's *memory access
structure*: which static instructions (PCs) touch which address regions,
with what strides, divergence and reuse distances.  The actual data
values are irrelevant — every experiment in the paper is defined over
address streams — so the models are address generators, not functional
ports (see DESIGN.md Section 2 for why this preserves behaviour).

Scaling: inputs are reduced from the paper's sizes so a full run of the
timing simulator finishes in seconds of wall clock.  Each workload
documents its scaled geometry; the ``scale`` parameter multiplies the
dominant dimension for sweeps.  What is *preserved* under scaling is the
ratio of per-SM resident working set to the 16 KB L1D and the per-PC
reuse-distance ranges of Figure 3/7, which are the quantities the DLP
mechanism reacts to.

Address-space management: each logical array gets a disjoint region from
:class:`AddressMap` so distinct data structures never alias in the
cache.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.gpu.isa import AffineLanes, WarpOp, trace_stats
from repro.gpu.kernel import Kernel
from repro.utils.rng import DeterministicRng

LINE = 128  # L1D line size; address patterns are line-structured
WARP = 32

# Region alignment: 1 MiB apart so the XOR-hash index still spreads them
_REGION_ALIGN = 1 << 20


@dataclass(frozen=True)
class WorkloadMeta:
    """Table 2 row: identity and classification of a benchmark."""

    name: str         # full benchmark name
    abbr: str         # the paper's abbreviation (figure x-axis labels)
    suite: str        # Rodinia / CUDA Samples / Mars / Parboil / Polybench
    paper_type: str   # "CS" or "CI" (paper Table 2)
    paper_input: str  # the input size the paper used
    scaled_input: str  # what this model uses instead


class AddressMap:
    """Bump allocator handing out disjoint, line-aligned array regions."""

    def __init__(self, base: int = 1 << 24):
        self._next = base
        self._regions: Dict[str, tuple] = {}

    def region(self, name: str, nbytes: int) -> int:
        """Reserve ``nbytes`` for array ``name``; returns the base byte
        address.  Repeated calls with the same name return the same base
        (arrays are shared across kernels of one workload)."""
        if name in self._regions:
            base, size = self._regions[name]
            if nbytes > size:
                raise ValueError(
                    f"region {name!r} re-requested with larger size "
                    f"({nbytes} > {size})"
                )
            return base
        base = self._next
        span = -(-nbytes // _REGION_ALIGN) * _REGION_ALIGN
        self._next = base + span + _REGION_ALIGN
        self._regions[name] = (base, nbytes)
        return base

    def regions(self) -> Dict[str, tuple]:
        return dict(self._regions)


class Workload(abc.ABC):
    """One Table 2 benchmark model."""

    meta: WorkloadMeta  # set by each subclass

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale
        self.addr = AddressMap()
        self.seed = 0
        self.rng = DeterministicRng(self.meta.abbr)
        self._kernels: List[Kernel] | None = None

    def reseed(self, seed: int) -> "Workload":
        """Re-key the workload's RNG stream (``seed`` 0 = the default
        stream).  Must be called before :meth:`kernels`; address streams
        are generated lazily, so reseeding after generation would leave
        stale kernels behind."""
        if self._kernels is not None:
            raise RuntimeError(
                f"{self.meta.abbr}: cannot reseed after kernels were built"
            )
        self.seed = seed
        self.rng = DeterministicRng(self.meta.abbr, salt=seed)
        return self

    # -- abstract ----------------------------------------------------------

    @abc.abstractmethod
    def build_kernels(self) -> List[Kernel]:
        """Construct the kernel launch sequence for this workload."""

    # -- public ---------------------------------------------------------------

    def kernels(self) -> List[Kernel]:
        if self._kernels is None:
            self._kernels = self.build_kernels()
            if not self._kernels:
                raise RuntimeError(f"{self.meta.abbr}: no kernels built")
        return self._kernels

    def static_stats(self) -> dict:
        """Aggregate trace statistics (thread instructions, memory ops,
        distinct PCs) across every warp — the Figure 6 inputs."""
        from repro.gpu.coalescer import coalesce_count

        totals = {
            "thread_instructions": 0,
            "mem_ops": 0,
            "mem_requests": 0,
            "distinct_pcs": set(),
        }
        for kernel in self.kernels():
            for cta in range(kernel.num_ctas):
                for w in range(kernel.warps_per_cta):
                    for op in kernel.warp_trace(cta, w):
                        if hasattr(op, "count"):  # ComputeOp
                            totals["thread_instructions"] += op.count * WARP
                        else:
                            totals["thread_instructions"] += op.active_lanes
                            totals["mem_ops"] += 1
                            totals["mem_requests"] += coalesce_count(op.addrs, LINE)
                            totals["distinct_pcs"].add(op.pc)
        totals["distinct_pcs"] = len(totals["distinct_pcs"])
        totals["mem_access_ratio"] = (
            totals["mem_requests"] / totals["thread_instructions"]
            if totals["thread_instructions"]
            else 0.0
        )
        return totals

    # -- helpers for subclasses ------------------------------------------------
    #
    # Each returns an AffineLanes descriptor, not a lane array: the
    # coalescer folds it in closed form, and every other reader sees
    # the lanes through len/iter/tolist/np.asarray.

    @staticmethod
    def coalesced(base: int, elem_bytes: int = 4) -> AffineLanes:
        """Per-lane addresses of a fully coalesced warp access starting at
        ``base`` (lane i reads ``base + i*elem_bytes``)."""
        return AffineLanes(base, elem_bytes, WARP)

    @staticmethod
    def broadcast(addr: int) -> AffineLanes:
        """All lanes read the same address (one request after coalescing)."""
        return AffineLanes(addr, 0, WARP)

    @staticmethod
    def strided(base: int, stride_bytes: int, count: int = WARP) -> AffineLanes:
        """Lane i reads ``base + i*stride_bytes`` — divergent when the
        stride exceeds the line size."""
        return AffineLanes(base, stride_bytes, count)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Workload {self.meta.abbr} scale={self.scale}>"
