"""Set-indexed tag (and data) array.

The tag array owns geometry (sets x ways x line size), address slicing and
the per-set line storage; it knows nothing about MSHRs, stalls or
policies.  The L1D cache model composes it with :class:`MshrTable`, and
the DLP Victim Tag Array reuses the same geometry helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.cache.hashing import get_index_fn
from repro.cache.line import CacheLine, LineState


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of a set-associative array.

    The paper's baseline L1D (Table 1) is ``CacheGeometry(num_sets=32,
    assoc=4, line_size=128)`` = 16 KB with a hash index.
    """

    num_sets: int
    assoc: int
    line_size: int = 128
    index_fn: str = "hash"

    def __post_init__(self) -> None:
        for name in ("num_sets", "assoc", "line_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"num_sets must be a power of two, got {self.num_sets}")
        if self.line_size & (self.line_size - 1):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")

    @property
    def size_bytes(self) -> int:
        return self.num_sets * self.assoc * self.line_size

    @property
    def offset_bits(self) -> int:
        return self.line_size.bit_length() - 1

    def block_addr(self, byte_addr: int) -> int:
        """Line-granular address (byte address with the offset stripped)."""
        return byte_addr >> self.offset_bits

    def set_index(self, block_addr: int) -> int:
        return get_index_fn(self.index_fn, self.num_sets)(block_addr)

    def tag(self, block_addr: int) -> int:
        # The full block address doubles as the tag; hardware would store
        # only the non-index bits, but with a hashed index the whole block
        # address is needed to disambiguate, as GPGPU-Sim does.
        return block_addr

    def with_assoc(self, assoc: int) -> "CacheGeometry":
        """Same sets/line size at a different associativity (Figs. 4-5)."""
        return CacheGeometry(self.num_sets, assoc, self.line_size, self.index_fn)


class CacheSet:
    """One set: a list of ways plus per-set statistics.

    Slotted on purpose (hot path); the hardware bit-width contracts of
    the DLP extension fields live on :class:`~repro.cache.line.CacheLine`
    itself, not here.
    """

    __slots__ = ("index", "lines", "queries")

    def __init__(self, index: int, assoc: int):
        self.index = index
        self.lines: List[CacheLine] = [CacheLine(way=w) for w in range(assoc)]
        self.queries = 0

    def find(self, tag: int) -> Optional[CacheLine]:
        for line in self.lines:
            if line.tag == tag and not line.is_invalid:
                return line
        return None

    def find_invalid(self) -> Optional[CacheLine]:
        for line in self.lines:
            if line.is_invalid:
                return line
        return None

    def replaceable(self) -> List[CacheLine]:
        """Lines a baseline LRU policy may evict (valid, not reserved)."""
        return [line for line in self.lines if line.state is LineState.VALID]

    def all_reserved_or_protected(self) -> bool:
        return all(
            line.is_reserved or (line.is_valid and line.is_protected)
            for line in self.lines
        )


class TagArray:
    """The full array of sets."""

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self.sets: List[CacheSet] = [
            CacheSet(i, geometry.assoc) for i in range(geometry.num_sets)
        ]
        self._stamp = 0

    def next_stamp(self) -> int:
        self._stamp += 1
        return self._stamp

    def set_for(self, block_addr: int) -> CacheSet:
        return self.sets[self.geometry.set_index(block_addr)]

    def probe(self, block_addr: int) -> Optional[CacheLine]:
        """Tag match without side effects (no LRU update)."""
        return self.set_for(block_addr).find(self.geometry.tag(block_addr))

    def touch(self, line: CacheLine) -> None:
        line.lru_stamp = self.next_stamp()

    def lines(self) -> Iterator[CacheLine]:
        for cache_set in self.sets:
            yield from cache_set.lines

    def valid_blocks(self) -> List[int]:
        return [line.block_addr for line in self.lines() if line.is_valid]

    def flush(self) -> None:
        for line in self.lines():
            line.invalidate()
