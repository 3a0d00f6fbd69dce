"""L2 cache slice (one per memory partition).

Table 1: 768 KB total, 64 sets, 8 ways, linear index — i.e. one
64 KB slice (64 sets x 8 ways x 128 B) in each of the 12 memory
partitions.  The slice is modelled functionally (LRU, write-through to
DRAM for stores) with an unbounded merge table for outstanding DRAM
fetches; the partition model in :mod:`repro.memory.partition` adds the
timing.

Each set is a dict of its resident blocks, least recently used first:
a read or write hit moves the block to the end, and a fill into a full
set evicts the first key.  That is exact LRU, not an approximation.
Every resident line is valid, because a fill allocates and installs in
one step; recency is a strict order; and no counter depends on which
way a block sits in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.cache.hashing import get_index_fn
from repro.cache.tagarray import CacheGeometry


@dataclass
class L2Stats:
    reads: int = 0
    writes: int = 0
    hits: int = 0
    misses: int = 0
    merged: int = 0
    evictions: int = 0
    dram_reads: int = 0
    dram_writes: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.reads if self.reads else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "hits": self.hits,
            "misses": self.misses,
            "merged": self.merged,
            "evictions": self.evictions,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "hit_rate": self.hit_rate,
        }


class L2Cache:
    """One L2 slice: per-set recency dicts plus a pending-fetch merge table."""

    def __init__(self, geometry: Optional[CacheGeometry] = None):
        self.geometry = geometry or CacheGeometry(
            num_sets=64, assoc=8, line_size=128, index_fn="linear"
        )
        self.stats = L2Stats()
        self._index_fn = get_index_fn(self.geometry.index_fn)
        self._num_sets = self.geometry.num_sets
        self._assoc = self.geometry.assoc
        # per set: resident block -> None, least recently used first
        self._sets: List[Dict[int, None]] = [
            {} for _ in range(self.geometry.num_sets)
        ]
        # block_addr -> waiters for the in-flight DRAM fetch
        self._pending: Dict[int, List[Any]] = {}

    # ------------------------------------------------------------------

    def _set_for(self, block_addr: int) -> Dict[int, None]:
        return self._sets[self._index_fn(block_addr, self._num_sets)]

    def read(self, block_addr: int, waiter: Any = None) -> str:
        """Look up a read. Returns one of:

        ``"hit"``     — data present, respond at L2 latency;
        ``"miss"``    — DRAM fetch needed (caller schedules it);
        ``"merged"``  — an identical fetch is already in flight; the
                        waiter rides along and no new DRAM read is issued.
        """
        self.stats.reads += 1
        lines = self._set_for(block_addr)
        if block_addr in lines:
            self.stats.hits += 1
            del lines[block_addr]
            lines[block_addr] = None
            return "hit"
        pending = self._pending.get(block_addr)
        if pending is not None:
            self.stats.merged += 1
            pending.append(waiter)
            return "merged"
        self.stats.misses += 1
        self.stats.dram_reads += 1
        self._pending[block_addr] = [waiter]
        return "miss"

    def fill(self, block_addr: int) -> List[Any]:
        """DRAM data returned: install the line, return merged waiters.

        A block that is already resident keeps its recency."""
        waiters = self._pending.pop(block_addr, [None])
        lines = self._set_for(block_addr)
        if block_addr not in lines:
            if len(lines) >= self._assoc:
                del lines[next(iter(lines))]
                self.stats.evictions += 1
            lines[block_addr] = None
        return waiters

    def write(self, block_addr: int) -> None:
        """Write-through: update the line if present, forward to DRAM."""
        self.stats.writes += 1
        self.stats.dram_writes += 1
        lines = self._set_for(block_addr)
        if block_addr in lines:
            del lines[block_addr]
            lines[block_addr] = None

    def pending_count(self) -> int:
        return len(self._pending)
