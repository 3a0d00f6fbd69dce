"""Miss Status Holding Registers and the outgoing miss queue.

Section 2 of the paper: a missing request first checks the MSHR table.  A
match appends the request's source information to the existing entry
(a *merge*); a new line needs a free MSHR entry.  When either the table or
the per-entry merge list is full, the request blocks the memory pipeline.
The bounded miss queue models the buffer between the L1D and the
interconnect injection port; a full queue is the third stall reason the
Stall-Bypass comparator (Section 5.3) reacts to.

Two merge disciplines exist, selected per table:

* **blocking** (default) — the per-entry merge limit counts *waiters*,
  one slot per merged request, reproducing the GPGPU-Sim-style merge
  list the paper's baseline models.
* **word-granular** (``word_granular=True``, the non-blocking L1D mode)
  — each entry tracks the pending *words* of its line in a bitmap, per
  the synapse32 CAM-based MSHR design: a secondary miss to a word that
  is already pending coalesces for free (no new slot), and the merge
  limit bounds the number of *distinct* words an entry may track.  The
  waiter list still records every merged request in arrival order, so
  fill-time wakeups stay deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.cache.line import INSN_ID_BITS
from repro.check.contracts import BitField, hw_checked

#: Word size the word-granular bitmap tracks (the synapse32 design
#: tracks 4-byte words within the line).
WORD_BYTES = 4


@hw_checked(first_insn_id=BitField(INSN_ID_BITS))
@dataclass
class MshrEntry:
    """One in-flight miss: the target line plus merged waiters.

    ``first_insn_id`` carries the hashed 7-bit instruction ID of the
    request that allocated the entry (what the fill re-tags the line
    with); the width is contract-enforced under ``REPRO_CHECK=1``.

    ``word_mask`` is the pending-word bitmap of the word-granular
    discipline (bit *i* set = word *i* of the line has a waiter); the
    blocking discipline leaves it zero.  ``is_bypass`` marks an entry
    whose fetch travels the bypass path and therefore never fills a
    reserved line; cached requests must never merge into one.
    """

    block_addr: int
    first_insn_id: int
    issued_at: int
    # Opaque per-request payloads (the timing simulator stores completion
    # callbacks / warp references here; the functional path stores None).
    waiters: List[Any] = field(default_factory=list)
    is_bypass: bool = False
    word_mask: int = 0

    @property
    def num_requests(self) -> int:
        return len(self.waiters)

    @property
    def num_words(self) -> int:
        """Distinct pending words (word-granular merge accounting)."""
        return bin(self.word_mask).count("1")


class MshrTable:
    """Fixed-size MSHR table with a per-entry merge limit."""

    def __init__(
        self,
        num_entries: int = 32,
        max_merged: int = 8,
        word_granular: bool = False,
        words_per_line: int = 32,
    ):
        if num_entries < 1 or max_merged < 1:
            raise ValueError("MSHR table needs at least one entry and one merge slot")
        if word_granular and words_per_line < 1:
            raise ValueError("word-granular MSHR needs at least one word per line")
        self.num_entries = num_entries
        self.max_merged = max_merged
        self.word_granular = word_granular
        self.words_per_line = words_per_line
        self._entries: Dict[int, MshrEntry] = {}
        # statistics
        self.peak_occupancy = 0
        self.total_allocations = 0
        self.total_merges = 0
        #: Word-granular merges absorbed by an already-pending word
        #: (no new merge slot consumed).
        self.word_coalesced = 0
        #: Bypass-path requests absorbed by a pending cached fetch (the
        #: normalized form of the bypass-into-non-bypass merge edge).
        self.bypass_absorbed = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.num_entries

    def lookup(self, block_addr: int) -> Optional[MshrEntry]:
        return self._entries.get(block_addr)

    def can_merge(self, block_addr: int, word: Optional[int] = None) -> bool:
        entry = self._entries.get(block_addr)
        if entry is None:
            return False
        if self.word_granular and word is not None:
            if entry.word_mask >> (word % self.words_per_line) & 1:
                return True  # already pending: coalesces for free
            return entry.num_words < self.max_merged
        return entry.num_requests < self.max_merged

    def merge(
        self,
        block_addr: int,
        waiter: Any,
        word: Optional[int] = None,
        is_bypass: bool = False,
    ) -> MshrEntry:
        """Append a secondary miss to an existing entry.

        ``word`` selects the word-granular discipline (required when the
        table was built ``word_granular=True``).  ``is_bypass`` carries
        the merging request's path: a bypass-intent request landing on a
        pending cached fetch is *absorbed* by it (the fill services the
        waiter; counted in :attr:`bypass_absorbed`, and the entry keeps
        ``is_bypass=False`` explicitly rather than by silent default).
        The converse — a cached request merging into a bypass entry —
        is a protocol violation, since bypass fetches never fill the
        reserved line the waiter would wake on.
        """
        entry = self._entries[block_addr]
        if entry.is_bypass and not is_bypass:
            raise RuntimeError(
                f"cached request cannot merge into bypass MSHR entry for "
                f"block {block_addr:#x}: a bypass fetch never fills the line"
            )
        if self.word_granular and word is not None:
            bit = 1 << (word % self.words_per_line)
            if entry.word_mask & bit:
                self.word_coalesced += 1
            elif entry.num_words >= self.max_merged:
                raise RuntimeError(f"merge overflow on block {block_addr:#x}")
            entry.word_mask |= bit
        elif entry.num_requests >= self.max_merged:
            raise RuntimeError(f"merge overflow on block {block_addr:#x}")
        if is_bypass and not entry.is_bypass:
            # Normalize: the entry stays a cached fetch; the bypass
            # request rides its fill instead of issuing its own.
            self.bypass_absorbed += 1
        entry.waiters.append(waiter)
        self.total_merges += 1
        return entry

    def allocate(
        self,
        block_addr: int,
        insn_id: int,
        now: int,
        waiter: Any,
        word: Optional[int] = None,
        is_bypass: bool = False,
    ) -> MshrEntry:
        if self.is_full:
            raise RuntimeError("MSHR allocation while table full")
        if block_addr in self._entries:
            raise RuntimeError(f"duplicate MSHR allocation for {block_addr:#x}")
        entry = MshrEntry(block_addr, insn_id, now, [waiter], is_bypass=is_bypass)
        if self.word_granular and word is not None:
            entry.word_mask = 1 << (word % self.words_per_line)
        self._entries[block_addr] = entry
        self.total_allocations += 1
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)
        return entry

    def release(self, block_addr: int) -> MshrEntry:
        """Retire an entry when its fill arrives; returns it with waiters."""
        entry = self._entries.pop(block_addr, None)
        if entry is None:
            raise KeyError(f"fill for block {block_addr:#x} with no MSHR entry")
        return entry

    def outstanding_blocks(self) -> List[int]:
        return list(self._entries)


class MissQueue:
    """Bounded FIFO of requests awaiting injection into the interconnect."""

    def __init__(self, depth: int = 8):
        if depth < 1:
            raise ValueError("miss queue needs at least one slot")
        self.depth = depth
        #: The FIFO itself.  Callers may test it for emptiness (the SM
        #: does, every cycle, before draining); only this class mutates it.
        self.entries: Deque[Any] = deque()
        self.total_enqueued = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.depth

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def push(self, item: Any) -> None:
        if self.is_full:
            raise RuntimeError("push to full miss queue")
        self.entries.append(item)
        self.total_enqueued += 1

    def pop(self) -> Any:
        return self.entries.popleft()

    def peek(self) -> Any:
        return self.entries[0]
