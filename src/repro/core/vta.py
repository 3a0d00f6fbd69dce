"""Victim Tag Array (paper Section 4.1.2).

A tag-only shadow of the L1D: same number of sets, configurable
associativity (the paper sets it equal to the cache associativity), LRU
replacement.  Each entry stores the evicted line's tag plus the 7-bit
instruction ID, so a later miss that hits in the VTA can credit the reuse
to the instruction whose line was evicted too early.

A VTA hit consumes the entry: the line is about to be refetched (or
bypassed), so keeping the stale tag would double-count one reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.tagarray import CacheGeometry
from repro.check.contracts import BitField, hw_checked
from repro.core.pdpt import INSN_ID_BITS


@hw_checked(insn_id=BitField(INSN_ID_BITS))
@dataclass
class VictimEntry:
    """One VTA slot: evicted tag + the paper's 7-bit instruction ID
    (width contract-enforced under ``REPRO_CHECK=1``)."""

    valid: bool = False
    tag: int = -1
    insn_id: int = 0
    lru_stamp: int = 0


class VictimTagArray:
    """Set-associative array of evicted-line tags; ``assoc`` is the
    resolved :class:`~repro.core.protected.ProtectionKnobs` value."""

    def __init__(self, geometry: CacheGeometry, assoc: int) -> None:
        self.geometry = geometry
        self.assoc = assoc
        self.sets: List[List[VictimEntry]] = [
            [VictimEntry() for _ in range(self.assoc)]
            for _ in range(geometry.num_sets)
        ]
        self._stamp = 0
        self.inserts = 0
        self.hits = 0
        self.probes = 0

    @property
    def num_entries(self) -> int:
        return self.geometry.num_sets * self.assoc

    def _set_for(self, block_addr: int) -> List[VictimEntry]:
        return self.sets[self.geometry.set_index(block_addr)]

    def insert(self, block_addr: int, insn_id: int) -> None:
        """Record an evicted line's tag (LRU replacement within the set)."""
        self._stamp += 1
        entries = self._set_for(block_addr)
        tag = self.geometry.tag(block_addr)
        victim: Optional[VictimEntry] = None
        for entry in entries:
            if entry.valid and entry.tag == tag:
                victim = entry  # re-eviction of the same tag: refresh
                break
            if victim is None and not entry.valid:
                victim = entry
        if victim is None:
            victim = min(entries, key=lambda e: e.lru_stamp)
        victim.valid = True
        victim.tag = tag
        victim.insn_id = insn_id
        victim.lru_stamp = self._stamp
        self.inserts += 1

    def probe(self, block_addr: int) -> Optional[int]:
        """Search for a tag; on hit, invalidate the entry and return the
        stored instruction ID.  Returns ``None`` on miss."""
        self.probes += 1
        entries = self._set_for(block_addr)
        tag = self.geometry.tag(block_addr)
        for entry in entries:
            if entry.valid and entry.tag == tag:
                entry.valid = False
                self.hits += 1
                return entry.insn_id
        return None

    def occupancy(self) -> int:
        return sum(1 for s in self.sets for e in s if e.valid)

    def reset(self) -> None:
        for entries in self.sets:
            for entry in entries:
                entry.valid = False
                entry.tag = -1
                entry.insn_id = 0
                entry.lru_stamp = 0
        self._stamp = 0
