"""L1 data cache model with MSHRs, line reservation, stall and bypass.

This reproduces the request-handling flow of the paper's Section 2 /
Figure 1 (baseline) and Figure 8 (DLP): hit check, MSHR merge, line
allocation with reservation, bounded miss queue, and the blocking-retry
behaviour when a miss cannot be absorbed.  All policy-specific behaviour
is delegated to a :class:`repro.core.policy.CachePolicy`.

Write handling follows GPGPU-Sim's Fermi L1D: global stores are
write-through and no-allocate, and a store hit evicts the line
(write-evict).  Stores therefore never wait for a response.

The model is *tag-functional*: no data payloads are stored, since every
experiment in the paper is defined over hit/miss/bypass/eviction events
and their timing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.cache.line import CacheLine, LineState
from repro.cache.mshr import WORD_BYTES, MissQueue, MshrTable
from repro.cache.tagarray import CacheGeometry, TagArray
from repro.core.policy import CachePolicy, StallReason


class AccessOutcome(enum.Enum):
    HIT = "hit"                       # valid line, data returned
    HIT_RESERVED = "hit_reserved"     # pending line, merged into MSHR
    MISS = "miss"                     # allocated, fetch sent
    BYPASS = "bypass"                 # sent to interconnect uncached
    WRITE_HIT = "write_hit"           # write-through + evict
    WRITE_MISS = "write_miss"         # write-through, no allocate
    STALL = "stall"                   # not processed; caller must retry


@dataclass(slots=True)
class MemAccess:
    """One coalesced memory request arriving at the L1D."""

    block_addr: int
    pc: int = 0
    insn_id: int = 0
    is_write: bool = False
    warp_id: int = 0
    sm_id: int = 0
    now: int = 0
    waiter: Any = None


@dataclass(frozen=True, slots=True)
class AccessResult:
    """What one access did.  Immutable: both L1D engines return the
    shared instances below, one per outcome and one per stall reason,
    instead of allocating a result per access."""

    outcome: AccessOutcome
    stall_reason: Optional[StallReason] = None

    @property
    def is_stall(self) -> bool:
        return self.outcome is AccessOutcome.STALL


HIT = AccessResult(AccessOutcome.HIT)
HIT_RESERVED = AccessResult(AccessOutcome.HIT_RESERVED)
MISS = AccessResult(AccessOutcome.MISS)
BYPASS = AccessResult(AccessOutcome.BYPASS)
WRITE_HIT = AccessResult(AccessOutcome.WRITE_HIT)
WRITE_MISS = AccessResult(AccessOutcome.WRITE_MISS)
STALL_MSHR_FULL = AccessResult(AccessOutcome.STALL, StallReason.MSHR_FULL)
STALL_MISS_QUEUE_FULL = AccessResult(AccessOutcome.STALL, StallReason.MISS_QUEUE_FULL)
STALL_MERGE_FULL = AccessResult(AccessOutcome.STALL, StallReason.MERGE_FULL)
STALL_NO_RESERVABLE_LINE = AccessResult(
    AccessOutcome.STALL, StallReason.NO_RESERVABLE_LINE
)


@dataclass(slots=True)
class FetchRequest:
    """A read fetch travelling from the L1D toward the interconnect."""

    block_addr: int
    insn_id: int
    sm_id: int
    is_bypass: bool
    is_write: bool = False
    issued_at: int = 0
    waiter: Any = None


#: The raw (non-derived) counter fields of :class:`L1DStats`, in
#: declaration order.  Serialization round-trips exactly these plus the
#: ``stalls`` map; every derived metric recomputes from them.
L1D_RAW_FIELDS = (
    "loads", "stores", "hits", "hit_reserved", "misses", "bypasses",
    "write_hits", "write_misses", "evictions", "write_evicts", "fills",
    "sent_fetches", "sent_writes",
)


@dataclass
class L1DStats:
    """Raw event counters; figure-level metrics derive from these."""

    loads: int = 0
    stores: int = 0
    hits: int = 0
    hit_reserved: int = 0
    misses: int = 0
    bypasses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    evictions: int = 0
    write_evicts: int = 0
    fills: int = 0
    sent_fetches: int = 0
    sent_writes: int = 0
    stalls: Dict[str, int] = field(default_factory=dict)

    def record_stall(self, reason: StallReason) -> None:
        key = reason._value_  # a plain attribute; ``value`` is a property
        self.stalls[key] = self.stalls.get(key, 0) + 1

    @classmethod
    def total(cls, parts: Iterable["L1DStats"]) -> "L1DStats":
        """Field-wise sum of per-SM counters; stall reasons keep their
        first-seen order, so the sum serializes identically."""
        total = cls()
        for part in parts:
            for f in L1D_RAW_FIELDS:
                setattr(total, f, getattr(total, f) + getattr(part, f))
            for reason, count in part.stalls.items():
                total.stalls[reason] = total.stalls.get(reason, 0) + count
        return total

    # -- derived metrics used by the paper's figures ----------------------

    @property
    def accesses(self) -> int:
        return self.loads + self.stores

    @property
    def hits_total(self) -> int:
        """Hits including pending hits (GPGPU-Sim counts both)."""
        return self.hits + self.hit_reserved

    @property
    def serviced_accesses(self) -> int:
        """Accesses the cache handled itself (Fig. 11a's 'L1D traffic')."""
        return self.accesses - self.bypasses

    @property
    def hit_rate(self) -> float:
        """Hit rate over non-bypassed loads (Fig. 12a: bypassed accesses
        do not count toward the rate)."""
        serviced_loads = self.loads - self.bypasses
        if serviced_loads <= 0:
            return 0.0
        return self.hits_total / serviced_loads

    @property
    def evictions_total(self) -> int:
        """Replacement evictions plus write-evicts (Fig. 11b)."""
        return self.evictions + self.write_evicts

    @property
    def total_stalls(self) -> int:
        return sum(self.stalls.values())

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "loads": self.loads,
            "stores": self.stores,
            "hits": self.hits,
            "hit_reserved": self.hit_reserved,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "write_hits": self.write_hits,
            "write_misses": self.write_misses,
            "evictions": self.evictions,
            "write_evicts": self.write_evicts,
            "fills": self.fills,
            "sent_fetches": self.sent_fetches,
            "sent_writes": self.sent_writes,
            "hit_rate": self.hit_rate,
            "serviced_accesses": self.serviced_accesses,
            "evictions_total": self.evictions_total,
            "total_stalls": self.total_stalls,
        }
        for reason, count in self.stalls.items():
            out[f"stall_{reason}"] = count
        return out

    # -- lossless serialization (result store / differential oracle) ------

    def to_raw_dict(self) -> Dict[str, Any]:
        """Raw counters only — the exact inverse of :meth:`from_raw_dict`.

        Unlike :meth:`as_dict` this excludes derived metrics, so a
        round-trip reconstructs a bit-identical :class:`L1DStats`.
        """
        out: Dict[str, Any] = {f: getattr(self, f) for f in L1D_RAW_FIELDS}
        out["stalls"] = dict(self.stalls)
        return out

    @classmethod
    def from_raw_dict(cls, data: Dict[str, Any]) -> "L1DStats":
        return cls(
            **{f: int(data.get(f, 0)) for f in L1D_RAW_FIELDS},
            stalls={k: int(v) for k, v in data.get("stalls", {}).items()},
        )


class L1DCache:
    """The per-SM L1 data cache.

    Parameters
    ----------
    geometry:
        Set/way/line-size layout (Table 1 baseline: 32 sets x 4 ways x 128 B).
    policy:
        Management scheme; owns replacement, protection and bypass choices.
    send_fn:
        Callback invoked for every request leaving toward the interconnect
        (fetches, bypasses and write-throughs).  The timing simulator wires
        this to the crossbar; the functional path wires it to a counter.
    mshr_entries / mshr_merge / miss_queue_depth:
        Resource limits that produce the Section 2 stall conditions.
    non_blocking:
        Off (default) keeps the blocking-retry model above byte-for-byte.
        On, the MSHR merges at word granularity (synapse32-style CAM): a
        secondary miss whose word is already pending coalesces without
        consuming a merge slot, and ``mshr_merge`` bounds *distinct*
        words per entry instead of waiters — hit-under-miss and
        miss-under-miss then come from the LD/ST unit issuing past a
        stalled request while misses stay outstanding.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: CachePolicy,
        send_fn: Optional[Callable[[FetchRequest], None]] = None,
        mshr_entries: int = 32,
        mshr_merge: int = 8,
        miss_queue_depth: int = 8,
        sm_id: int = 0,
        non_blocking: bool = False,
    ):
        self.geometry = geometry
        self.tags = TagArray(geometry)
        self.policy = policy
        self.non_blocking = non_blocking
        self.words_per_line = max(1, geometry.line_size // WORD_BYTES)
        self.mshr = MshrTable(
            mshr_entries,
            mshr_merge,
            word_granular=non_blocking,
            words_per_line=self.words_per_line,
        )
        self.miss_queue = MissQueue(miss_queue_depth)
        self.send_fn = send_fn or (lambda req: None)
        self.sm_id = sm_id
        self.stats = L1DStats()
        #: Optional observer called once per *completed* access as
        #: ``tap(access, outcome)`` — stalled retries collapse to their
        #: completion.  The trace recorder (repro.trace.record) hooks
        #: here; None costs one falsy check per access.
        self.access_tap: Optional[Callable[[MemAccess, AccessOutcome], None]] = None
        policy.attach(self)

    # ------------------------------------------------------------------
    # main protocol
    # ------------------------------------------------------------------

    def access(self, access: MemAccess) -> AccessResult:
        """Process one request; returns STALL when the request cannot be
        absorbed (the caller retries, blocking the pipeline behind it,
        exactly as Section 2 describes).

        Not every stall is side-effect-free.  ``MSHR_FULL``,
        ``MISS_QUEUE_FULL`` and ``MERGE_FULL`` are reported before any
        state changes, and a request that got one keeps getting it
        until a fill or a miss-queue drain; the LD/ST unit's stall memo
        (:mod:`repro.gpu.ldst`) relies on that.  ``NO_RESERVABLE_LINE``
        comes after the set query and the VTA probe, so under a
        protecting policy with bypass disabled every retry decays the
        set's Protected Life.
        """
        if access.is_write:
            return self._access_write(access)
        return self._access_load(access)

    def _access_load(self, access: MemAccess) -> AccessResult:
        cache_set = self.tags.set_for(access.block_addr)
        tag = self.geometry.tag(access.block_addr)
        line = cache_set.find(tag)

        if line is not None and line.state is LineState.VALID:
            return self._complete_hit(cache_set, line, access)

        if line is not None and line.state is LineState.RESERVED:
            return self._merge_pending(cache_set, line, access)

        return self._handle_miss(cache_set, access)

    def _complete_hit(self, cache_set, line: CacheLine, access: MemAccess) -> AccessResult:
        self._query(cache_set, access)
        self.stats.loads += 1
        self.stats.hits += 1
        self.policy.on_hit(line, access, reserved=False)
        self.tags.touch(line)
        self._done(access, AccessOutcome.HIT)
        return HIT

    def _merge_pending(self, cache_set, line: CacheLine, access: MemAccess) -> AccessResult:
        entry = self.mshr.lookup(access.block_addr)
        if entry is None:
            raise RuntimeError(
                f"reserved line {access.block_addr:#x} without MSHR entry"
            )
        word = self._word_of(access) if self.non_blocking else None
        if self.non_blocking:
            merge_full = not self.mshr.can_merge(access.block_addr, word)
        else:
            merge_full = entry.num_requests >= self.mshr.max_merged
        if merge_full:
            if self.policy.bypass_on_stall(StallReason.MERGE_FULL, access):
                return self._do_bypass(cache_set, access, count_query=True)
            self.stats.record_stall(StallReason.MERGE_FULL)
            return STALL_MERGE_FULL
        self._query(cache_set, access)
        self.stats.loads += 1
        self.stats.hit_reserved += 1
        self.mshr.merge(access.block_addr, access.waiter, word=word)
        self.policy.on_hit(line, access, reserved=True)
        self._done(access, AccessOutcome.HIT_RESERVED)
        return HIT_RESERVED

    def _handle_miss(self, cache_set, access: MemAccess) -> AccessResult:
        # Resource checks happen before side effects so a stalled request
        # can retry without double-counting.
        if self.mshr.is_full:
            if self.policy.bypass_on_stall(StallReason.MSHR_FULL, access):
                return self._do_bypass(cache_set, access, count_query=True, missed=True)
            self.stats.record_stall(StallReason.MSHR_FULL)
            return STALL_MSHR_FULL
        if self.miss_queue.is_full:
            if self.policy.bypass_on_stall(StallReason.MISS_QUEUE_FULL, access):
                return self._do_bypass(cache_set, access, count_query=True, missed=True)
            self.stats.record_stall(StallReason.MISS_QUEUE_FULL)
            return STALL_MISS_QUEUE_FULL

        # The set query (and the PL decay it implies) precedes victim
        # selection: "a bypassed request also queries and consumes PL
        # values of all entries in this set" (Section 4.1.1).
        self._query(cache_set, access)
        self.policy.on_miss(access)

        victim = self.policy.select_victim(cache_set, access)
        if victim is None:
            if self.policy.bypass_on_no_victim(access):
                return self._do_bypass(
                    cache_set, access, count_query=False, missed=False
                )
            # Roll back nothing: the query already happened, but a stalled
            # baseline request re-queries on retry in hardware too; we
            # count the access once at completion instead.
            self.stats.record_stall(StallReason.NO_RESERVABLE_LINE)
            return STALL_NO_RESERVABLE_LINE

        if victim.state is LineState.VALID:
            self.policy.on_evict(victim)
            self.stats.evictions += 1
        victim.invalidate()
        victim.reserve(
            self.geometry.tag(access.block_addr),
            access.block_addr,
            access.insn_id,
            self.tags.next_stamp(),
        )
        self.policy.on_allocate(victim, access)

        self.mshr.allocate(
            access.block_addr, access.insn_id, access.now, access.waiter,
            word=self._word_of(access) if self.non_blocking else None,
        )
        self.miss_queue.push(
            FetchRequest(
                access.block_addr, access.insn_id, self.sm_id, False, False,
                access.now,
            )
        )
        self.stats.loads += 1
        self.stats.misses += 1
        self._done(access, AccessOutcome.MISS)
        return MISS

    def _do_bypass(
        self,
        cache_set,
        access: MemAccess,
        count_query: bool,
        missed: bool = True,
    ) -> AccessResult:
        """Send the request to the interconnect without caching it.

        Bypassed requests use the dedicated bypass path of Fig. 1/8, so
        they need neither an MSHR entry nor a miss-queue slot.
        """
        if count_query:
            self._query(cache_set, access)
        if missed:
            self.policy.on_miss(access)
        self.stats.loads += 1
        self.stats.bypasses += 1
        self.policy.on_bypass(access)
        self.stats.sent_fetches += 1
        self.send_fn(
            FetchRequest(
                access.block_addr, access.insn_id, self.sm_id, True, False,
                access.now, access.waiter,
            )
        )
        self._done(access, AccessOutcome.BYPASS)
        return BYPASS

    def _access_write(self, access: MemAccess) -> AccessResult:
        cache_set = self.tags.set_for(access.block_addr)
        tag = self.geometry.tag(access.block_addr)
        line = cache_set.find(tag)
        # Write-through traffic rides the miss queue toward the
        # interconnect; a full queue blocks the pipeline.
        if self.miss_queue.is_full:
            if not self.policy.bypass_on_stall(StallReason.MISS_QUEUE_FULL, access):
                self.stats.record_stall(StallReason.MISS_QUEUE_FULL)
                return STALL_MISS_QUEUE_FULL
            # Stall-Bypass routes the write down the bypass path instead.
            self._query(cache_set, access)
            self.stats.stores += 1
            self.stats.write_misses += 1
            self.stats.sent_writes += 1
            self.send_fn(
                FetchRequest(
                    access.block_addr, access.insn_id, self.sm_id, True, True,
                    access.now,
                )
            )
            self._done(access, AccessOutcome.WRITE_MISS)
            return WRITE_MISS

        self._query(cache_set, access)
        self.stats.stores += 1
        result = WRITE_MISS
        if line is not None and line.state is LineState.VALID:
            # write-evict: invalidate the local copy, data goes to L2
            line.invalidate()
            self.stats.write_hits += 1
            self.stats.write_evicts += 1
            result = WRITE_HIT
        else:
            self.stats.write_misses += 1
        self.miss_queue.push(
            FetchRequest(
                access.block_addr, access.insn_id, self.sm_id, False, True,
                access.now,
            )
        )
        self._done(access, result.outcome)
        return result

    # ------------------------------------------------------------------
    # interconnect side
    # ------------------------------------------------------------------

    def drain_miss_queue(self, max_requests: int = 1) -> int:
        """Inject up to ``max_requests`` queued requests into the
        interconnect (one per cycle at the paper's clocks).  Returns the
        number injected."""
        injected = 0
        while injected < max_requests and not self.miss_queue.is_empty:
            fetch: FetchRequest = self.miss_queue.pop()
            if fetch.is_write:
                self.stats.sent_writes += 1
            else:
                self.stats.sent_fetches += 1
            self.send_fn(fetch)
            injected += 1
        return injected

    def fill(self, block_addr: int, now: int) -> List[Any]:
        """A fetch response arrived: fill the reserved line and return the
        waiters (merged requests) to wake."""
        entry = self.mshr.release(block_addr)
        line = self.tags.probe(block_addr)
        if line is None or line.state is not LineState.RESERVED:
            raise RuntimeError(f"fill for {block_addr:#x} without reserved line")
        line.fill(self.tags.next_stamp())
        self.stats.fills += 1
        return entry.waiters

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _word_of(self, access: MemAccess) -> int:
        """Pending-word index of a request within its line.

        Traces are line-granular (no byte offsets survive coalescing), so
        the issuing warp's lane position stands in for the word the
        request targets — a deterministic modeling proxy that makes
        same-warp re-references coalesce for free while distinct warps
        claim distinct words, matching the CAM design's intent.
        """
        return access.warp_id % self.words_per_line

    def _query(self, cache_set, access: MemAccess) -> None:
        cache_set.queries += 1
        self.policy.on_set_query(cache_set, access)

    def _done(self, access: MemAccess, outcome: AccessOutcome) -> None:
        self.policy.on_access_done(access, outcome)
        if self.access_tap is not None:
            self.access_tap(access, outcome)

    def reset_stats(self) -> None:
        self.stats = L1DStats()
