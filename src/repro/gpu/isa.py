"""Warp-level instruction model.

Workload traces are sequences of two op kinds:

* :class:`ComputeOp` — a run of ``count`` back-to-back non-memory warp
  instructions.  The SIMT front end issues them at one per cycle from the
  owning scheduler (the GTO scheduler stays greedy on a ready warp), so a
  run occupies the scheduler for ``count`` cycles and contributes
  ``count * active_lanes`` thread instructions.  Batching runs keeps the
  Python event loop off the (hot but uninteresting) ALU path — the
  profile-first guidance of the HPC coding guides applied to a simulator.

* :class:`MemOp` — one global-memory warp instruction at program counter
  ``pc`` with the per-lane byte addresses.  The coalescer in
  :mod:`repro.gpu.coalescer` folds the lanes into 128-byte line requests.

Most warp accesses are affine (coalesced, strided or broadcast: lane
``i`` reads ``base + i * stride``), so their addresses travel as an
:class:`AffineLanes` descriptor of three ints rather than a lane
array, and the coalescer folds them in closed form.  Any other pattern
is a plain array or sequence of lane addresses.

A ``pc`` identifies a static memory instruction; DLP folds it to the
7-bit instruction ID with :func:`repro.utils.hashing.hash_pc`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.utils.hashing import hash_pc

#: PCs are static per workload (a few dozen at most), while a grid
#: builds ~10^5 memory ops, so each op looks its ID up instead of
#: rerunning the hash.
_insn_id = lru_cache(maxsize=1024)(hash_pc)


class ComputeOp:
    """``count`` consecutive non-memory warp instructions."""

    __slots__ = ("count",)

    def __init__(self, count: int):
        if count < 1:
            raise ValueError(f"compute run must be positive, got {count}")
        self.count = count

    def __repr__(self) -> str:
        return f"ComputeOp({self.count})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ComputeOp) and other.count == self.count


class AffineLanes:
    """Lane addresses ``base + lane * stride`` for ``count`` lanes.

    Stands in for the int64 lane array it describes wherever lane
    addresses are read: ``len``, iteration, ``tolist()`` and
    ``np.asarray`` (through ``__array__``) all see the lanes.  The
    coalescer reads the three fields directly instead.
    """

    __slots__ = ("base", "stride", "count")

    def __init__(self, base: int, stride: int, count: int):
        self.base = int(base)  # workloads may compute it as a numpy int
        self.stride = stride
        self.count = count

    def __len__(self) -> int:
        return self.count

    def tolist(self) -> List[int]:
        base, stride = self.base, self.stride
        return [base + lane * stride for lane in range(self.count)]

    def __iter__(self) -> Iterator[int]:
        return iter(self.tolist())

    def __array__(self, dtype=None, copy: Optional[bool] = None) -> np.ndarray:
        lanes = np.arange(self.count, dtype=np.int64) * self.stride + self.base
        return lanes if dtype is None else lanes.astype(dtype, copy=False)

    def __repr__(self) -> str:
        return (
            f"AffineLanes(base={self.base:#x}, stride={self.stride}, "
            f"count={self.count})"
        )


LaneAddrs = Union[AffineLanes, Sequence[int]]


class MemOp:
    """One warp-level global load or store.

    ``addrs`` holds per-lane byte addresses (up to warp_size of them;
    fewer models a partially-active warp), as an :class:`AffineLanes`
    descriptor or a lane array.  ``insn_id`` is precomputed at
    construction so the cache hot path never re-hashes the PC.
    """

    __slots__ = ("is_write", "pc", "addrs", "insn_id", "active_lanes")

    def __init__(self, is_write: bool, pc: int, addrs: LaneAddrs):
        lanes = len(addrs)
        if lanes == 0:
            raise ValueError("memory op needs at least one active lane")
        self.is_write = bool(is_write)
        self.pc = pc
        self.addrs = addrs
        self.insn_id = _insn_id(pc)
        self.active_lanes = lanes

    def __repr__(self) -> str:
        kind = "ST" if self.is_write else "LD"
        return f"MemOp({kind}, pc={self.pc:#x}, lanes={self.active_lanes})"


WarpOp = Union[ComputeOp, MemOp]
WarpTrace = Iterator[WarpOp]


def load(pc: int, addrs: LaneAddrs) -> MemOp:
    return MemOp(False, pc, addrs)


def store(pc: int, addrs: LaneAddrs) -> MemOp:
    return MemOp(True, pc, addrs)


def compute(count: int) -> ComputeOp:
    return ComputeOp(count)


def trace_stats(ops: Iterable[WarpOp], warp_size: int = 32) -> dict:
    """Static summary of a trace (used by tests and the classifier):
    thread instructions, memory requests, distinct PCs."""
    thread_insns = 0
    mem_ops = 0
    lanes = 0
    pcs = set()
    for op in ops:
        if isinstance(op, ComputeOp):
            thread_insns += op.count * warp_size
        else:
            thread_insns += op.active_lanes
            mem_ops += 1
            lanes += op.active_lanes
            pcs.add(op.pc)
    return {
        "thread_instructions": thread_insns,
        "mem_ops": mem_ops,
        "mem_lanes": lanes,
        "distinct_pcs": len(pcs),
    }
