"""Reuse-distance profiling (paper Section 3.1, Figs. 2, 3 and 7).

The paper defines a reuse distance as "the number of other memory
accesses to a cache set between two accesses to the same cache line
within that set", counted as in its Figure 2: the access sequence
A0 A1 A2 A0 within one set gives A0 a RD of 3 — i.e. the per-set access
counter difference between the two touches.  Under LRU, a re-reference
hits iff its RD does not exceed the associativity.

RDs depend only on the access stream and the set mapping, never on the
associativity — which is what lets Fig. 3 characterise applications
independent of cache capacity.

Attribution: a reuse is credited to the PC of the access that *brought
in or last touched* the line (the same previous-toucher convention the
DLP hardware uses for its hit counters), so the per-PC RDDs of Fig. 7
line up with the PDs the mechanism would assign.

The same walk finds each reuse's position in its set's LRU stack: the
number of distinct other blocks the set saw since the block's last
touch.  An LRU set of ``assoc`` ways hits exactly the reuses above
position ``assoc`` (Mattson et al.'s stack algorithm), so one pass
gives Fig. 4's reuse-data misses at every capacity that keeps the set
count and index function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache.tagarray import CacheGeometry

#: The paper's four RD ranges (Fig. 3 legend).
RD_RANGES: Tuple[Tuple[int, int], ...] = ((1, 4), (5, 8), (9, 64), (65, 1 << 62))
RD_LABELS = ("RD 1~4", "RD 5~8", "RD 9~64", "RD >65")

#: Depth of each set's LRU stack: the 64 KB L1D's associativity
#: (``GPUConfig.with_l1d_size_kb``), the largest capacity of Fig. 4.
STACK_DEPTH = 16


def bucket_of(rd: int) -> int:
    """Index of the Fig. 3 range containing ``rd``."""
    if rd <= 4:
        return 0
    if rd <= 8:
        return 1
    if rd <= 64:
        return 2
    return 3


@dataclass
class RddHistogram:
    """Counts per RD range, plus helpers to express them as fractions."""

    counts: List[int] = field(default_factory=lambda: [0, 0, 0, 0])

    def add(self, rd: int) -> None:
        self.counts[bucket_of(rd)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts)

    def fractions(self) -> List[float]:
        t = self.total
        if t == 0:
            return [0.0, 0.0, 0.0, 0.0]
        return [c / t for c in self.counts]

    def merge(self, other: "RddHistogram") -> None:
        for i, c in enumerate(other.counts):
            self.counts[i] += c


class ReuseProfiler:
    """Streams (block address, pc) observations, producing RDDs and LRU
    stack positions.

    One profiler models one L1D's access stream (per-SM); merge the
    histograms to aggregate a whole run.
    """

    def __init__(self, geometry: Optional[CacheGeometry] = None):
        # Only the set count / index function matter for RDs.
        self.geometry = geometry or CacheGeometry(num_sets=32, assoc=4)
        nsets = self.geometry.num_sets
        self._set_counter = [0] * nsets
        # per set: block -> (counter at last touch, pc of last toucher)
        self._last: List[Dict[int, Tuple[int, int]]] = [dict() for _ in range(nsets)]
        # per set: its most recent distinct blocks, MRU first
        self._stacks: List[List[int]] = [[] for _ in range(nsets)]
        self.overall = RddHistogram()
        self.per_pc: Dict[int, RddHistogram] = {}
        #: Reuses per LRU stack position; the last slot counts every
        #: reuse deeper than :data:`STACK_DEPTH`.
        self.stack_positions = [0] * (STACK_DEPTH + 1)
        self.compulsory = 0
        self.reuses = 0
        self.accesses = 0

    def observe(self, block_addr: int, pc: int = 0) -> Optional[int]:
        """Record one access; returns the RD if this was a reuse."""
        self.accesses += 1
        set_idx = self.geometry.set_index(block_addr)
        self._set_counter[set_idx] += 1
        counter = self._set_counter[set_idx]
        last = self._last[set_idx]
        prev = last.get(block_addr)
        last[block_addr] = (counter, pc)
        stack = self._stacks[set_idx]
        if prev is None:
            self.compulsory += 1
            stack.insert(0, block_addr)
            del stack[STACK_DEPTH:]
            return None
        if block_addr in stack:
            pos = stack.index(block_addr)
            del stack[pos]
        else:
            pos = STACK_DEPTH
            stack.pop()
        stack.insert(0, block_addr)
        self.stack_positions[pos] += 1
        prev_counter, prev_pc = prev
        rd = counter - prev_counter
        self.reuses += 1
        self.overall.add(rd)
        hist = self.per_pc.get(prev_pc)
        if hist is None:
            hist = self.per_pc[prev_pc] = RddHistogram()
        hist.add(rd)
        return rd

    # -- reporting ---------------------------------------------------------

    def overall_fractions(self) -> List[float]:
        return self.overall.fractions()

    def pc_fractions(self) -> Dict[int, List[float]]:
        return {pc: h.fractions() for pc, h in self.per_pc.items()}

    def reuse_misses(self, assoc: int) -> int:
        """Reuses an LRU set of ``assoc`` ways misses: those found at
        stack position ``assoc`` or deeper."""
        if not 1 <= assoc <= STACK_DEPTH:
            raise ValueError(
                f"associativity must be 1..{STACK_DEPTH}, got {assoc}"
            )
        return sum(self.stack_positions[assoc:])

    def merge(self, other: "ReuseProfiler") -> None:
        self.overall.merge(other.overall)
        for pc, hist in other.per_pc.items():
            mine = self.per_pc.get(pc)
            if mine is None:
                self.per_pc[pc] = RddHistogram(list(hist.counts))
            else:
                mine.merge(hist)
        for pos, count in enumerate(other.stack_positions):
            self.stack_positions[pos] += count
        self.compulsory += other.compulsory
        self.reuses += other.reuses
        self.accesses += other.accesses


def rd_of_sequence(blocks, geometry: Optional[CacheGeometry] = None) -> List[Optional[int]]:
    """RDs of each access in a short sequence (the Fig. 2 worked example).

    >>> rd_of_sequence([0, 1, 2, 0], CacheGeometry(num_sets=1, assoc=2))
    [None, None, None, 3]
    """
    profiler = ReuseProfiler(geometry)
    return [profiler.observe(b) for b in blocks]
