"""Packed struct-of-arrays L1D engine (the ``fast`` engine).

:class:`FastL1DCache` is a drop-in replacement for
:class:`repro.cache.l1d.L1DCache` that stores every per-line field
(state, block address, LRU stamp, instruction IDs, Protected Life), the
Victim Tag Array and the Protection Distance Prediction Table in flat
integer lists indexed by ``set_index * assoc + way``, with the set-index
function hoisted out of the per-access path.  All four policies
(baseline LRU, Stall-Bypass, Global-Protection, DLP) are inlined into
the protocol flow and selected by an integer kind, replacing the
reference model's per-object traversal, virtual policy dispatch and
``min(..., key=)`` victim scans with index arithmetic.

The engine is **bit-identical** to the reference model by construction
and by test: every counter, stall record, policy statistic and PD value
matches the reference for the same access stream (``tests/fastsim``
proves this differentially across policies, ablation knobs, golden
streams and fuzzed streams).  Anything observable therefore follows the
reference's exact orderings — stamp allocation, PL decay before victim
selection, VTA consume-on-probe, first-wins LRU tie-breaks, and the
sampling-window close conditions.  Nothing of a policy's definition is
copied here: the knobs are the policy's
:class:`~repro.core.protected.ProtectionKnobs`, resolved against this
cache's geometry, and a sample's end applies the reference Figure 9
rules (:func:`~repro.core.protection.pd_increment`,
:func:`~repro.core.protection.run_global_pd_update`) to the packed
counters.

Public protocol mirrors ``L1DCache``: ``access`` / ``fill`` /
``drain_miss_queue`` / ``reset_stats`` / ``stats`` / ``access_tap`` /
``mshr`` / ``miss_queue``, plus a ``policy`` facade exposing the
policy-side surface the simulator and reports use
(``notify_instructions``, ``stats``, ``reset``, ``pd_snapshot``,
``global_pd``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable, Dict, List, Optional, Union

from repro.cache.hashing import get_index_fn
from repro.cache.l1d import (
    BYPASS,
    HIT,
    HIT_RESERVED,
    MISS,
    STALL_MERGE_FULL,
    STALL_MISS_QUEUE_FULL,
    STALL_MSHR_FULL,
    STALL_NO_RESERVABLE_LINE,
    WRITE_HIT,
    WRITE_MISS,
    AccessOutcome,
    AccessResult,
    FetchRequest,
    L1DStats,
    MemAccess,
)
from repro.cache.mshr import WORD_BYTES, MissQueue, MshrTable
from repro.cache.tagarray import CacheGeometry
from repro.core.policy import CachePolicy, StallReason
from repro.core.pdpt import PDPT_ENTRIES, TDA_HIT_BITS, VTA_HIT_BITS
from repro.core.protected import ProtectedPolicy, ProtectionKnobs
from repro.core.protection import pd_increment, run_global_pd_update

#: Line states, numeric for the packed arrays (mirrors
#: :class:`repro.cache.line.LineState` semantics).
INVALID, RESERVED, VALID = 0, 1, 2

#: Policy kinds, numeric for branch dispatch in the hot path.
KIND_BASELINE, KIND_STALL_BYPASS, KIND_GLOBAL, KIND_DLP = 0, 1, 2, 3

_KIND_BY_NAME = {
    "baseline": KIND_BASELINE,
    "stall_bypass": KIND_STALL_BYPASS,
    "global_protection": KIND_GLOBAL,
    "dlp": KIND_DLP,
}


@dataclass(frozen=True)
class PolicySpec:
    """Everything the packed engine needs to know about a policy: its
    kind and its knob declaration (the default declaration for the
    unprotected kinds, which read none of it).

    Extracted from a reference policy instance, so ``make_policy`` and
    every existing ``policy_factory`` keep working unchanged.
    """

    kind: int
    knobs: ProtectionKnobs

    @classmethod
    def from_policy(cls, policy: CachePolicy) -> "PolicySpec":
        kind = _KIND_BY_NAME.get(policy.name)
        if kind is None:
            raise ValueError(
                f"fast engine does not support custom policy {policy.name!r}; "
                f"use engine='reference'"
            )
        if isinstance(policy, ProtectedPolicy):
            return cls(kind, policy.knobs)
        return cls(kind, ProtectionKnobs())


class _FastPolicyFacade:
    """The policy-side surface of a :class:`FastL1DCache`.

    The simulator, the CLI and the golden/report harnesses talk to
    ``sm.policy`` — for the fast engine that is this object, which
    forwards to the packed state inside the cache.
    """

    def __init__(self, cache: "FastL1DCache") -> None:
        self._cache = cache
        # Bound once: the SM calls this on every issued op.
        self.notify_instructions: Callable[[int], None] = cache.notify_instructions

    @property
    def name(self) -> str:
        return self._cache.policy_name

    def stats(self) -> Dict[str, float]:
        return self._cache.policy_stats()

    def reset(self) -> None:
        self._cache.policy_reset()

    def pd_snapshot(self) -> Dict[int, Dict[str, int]]:
        return self._cache.pd_snapshot()

    @property
    def global_pd(self) -> int:
        return self._cache._gpd


class FastL1DCache:
    """Packed-array L1D cache: same protocol, flat state, inlined policy."""

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: Union[CachePolicy, PolicySpec],
        send_fn: Optional[Callable[[FetchRequest], None]] = None,
        mshr_entries: int = 32,
        mshr_merge: int = 8,
        miss_queue_depth: int = 8,
        sm_id: int = 0,
        non_blocking: bool = False,
    ) -> None:
        spec = (
            policy
            if isinstance(policy, PolicySpec)
            else PolicySpec.from_policy(policy)
        )
        self.spec = spec
        self.geometry = geometry
        self.non_blocking = non_blocking
        self.words_per_line = max(1, geometry.line_size // WORD_BYTES)
        self.mshr = MshrTable(
            mshr_entries,
            mshr_merge,
            word_granular=non_blocking,
            words_per_line=self.words_per_line,
        )
        self.miss_queue = MissQueue(miss_queue_depth)
        # Tested or popped on every miss, fill and drain.
        self._mshr_map = self.mshr.entries
        self._mshr_cap = self.mshr.num_entries
        self._mq = self.miss_queue.entries
        self._mq_depth = self.miss_queue.depth
        self.send_fn = send_fn or (lambda req: None)
        self.sm_id = sm_id
        self.stats = L1DStats()
        self.access_tap: Optional[
            Callable[[MemAccess, AccessOutcome], None]
        ] = None

        self._kind = spec.kind
        num_sets, assoc = geometry.num_sets, geometry.assoc
        self._num_sets = num_sets
        self._assoc = assoc
        # Bound (and its set count checked) once per geometry.
        self._set_of = get_index_fn(geometry.index_fn, num_sets)

        n = num_sets * assoc
        # Per-line packed fields.  Names deliberately avoid the raw
        # hardware field names — the flat arrays are an *encoding* of the
        # contract-checked reference fields, proven equivalent by the
        # differential suite, not a second set of hardware registers.
        self._st = [INVALID] * n      # line state
        self._blk = [-1] * n          # block address (== tag)
        self._lru = [0] * n           # LRU stamp
        self._iid = [0] * n           # owning instruction ID
        self._pli = [0] * n           # Protected Life
        self._pnd = [0] * n           # pending instruction ID (RESERVED)
        self._stamp = 0               # shared stamp counter (TagArray._stamp)

        knobs = spec.knobs
        protected = spec.kind >= KIND_GLOBAL
        self._protected = protected
        self._bypass_enabled = knobs.bypass_enabled if protected else False
        self._pl_max = knobs.pl_max if protected else 0

        # Stall-Bypass per-reason counters, in StallReason declaration
        # order (matches StallBypassPolicy.bypassed_by_reason).
        self._bypassed = {reason.value: 0 for reason in StallReason}

        # VTA (packed), DLP/GP only.
        vta_assoc, self._nasc = knobs.resolve(assoc)
        self._vta_assoc = vta_assoc
        vn = num_sets * vta_assoc if protected else 0
        self._vta_valid = [False] * vn
        self._vta_blk = [-1] * vn
        self._vta_iid = [0] * vn
        self._vta_lru = [0] * vn
        self._vta_stamp = 0
        self._vta_hit_count = 0
        self._vta_insert_count = 0
        self._vta_probe_count = 0

        # Sampling window (SampleWindow semantics, inlined).
        self._acc_limit = knobs.sample_limit
        self._ins_limit = knobs.insn_sample_limit
        self._acc = 0
        self._ins = 0
        self.samples_completed = 0
        self.closed_by = {"accesses": 0, "instructions": 0}

        # PDPT (packed), DLP only.
        pn = PDPT_ENTRIES if spec.kind == KIND_DLP else 0
        self._pdpt_n = pn
        self._pdt = [0] * pn          # per-entry TDA-hit counters
        self._pdv = [0] * pn          # per-entry VTA-hit counters
        self._pdl = [0] * pn          # per-entry Protection Distances
        self._pdu = [False] * pn      # lifetime activity markers
        self._tda_hit_max = (1 << TDA_HIT_BITS) - 1
        self._vta_hit_max = (1 << VTA_HIT_BITS) - 1
        self._pd_max = self._pl_max
        self._g_tda = 0               # global (non-saturating) accumulators
        self._g_vta = 0

        # Global-Protection scalar state.
        self._gpd = 0
        self._gp_tda = 0
        self._gp_vta = 0

        self.protected_bypasses = 0
        self.pd_updates = {"increase": 0, "decrease": 0, "hold": 0}

        self.policy_name = next(
            name for name, k in _KIND_BY_NAME.items() if k == spec.kind
        )
        self.policy = _FastPolicyFacade(self)

    # ------------------------------------------------------------------
    # main protocol
    # ------------------------------------------------------------------

    def access(self, access: MemAccess) -> AccessResult:
        block = access.block_addr
        assoc = self._assoc
        base = self._set_of(block) * assoc
        end = base + assoc
        if access.is_write:
            return self._access_write(access, base, end)
        st, blk = self._st, self._blk
        for way in range(base, end):
            if blk[way] == block and st[way] != INVALID:
                if st[way] == VALID:
                    return self._complete_hit(base, end, way, access)
                return self._merge_pending(base, end, way, access)
        return self._handle_miss(base, end, access)

    def _complete_hit(
        self, base: int, end: int, way: int, access: MemAccess
    ) -> AccessResult:
        if self._protected:
            self._query(base, end)
        self.stats.loads += 1
        self.stats.hits += 1
        kind = self._kind
        if kind == KIND_DLP:
            # Credit the previous owning instruction, re-tag, re-protect
            # from the accessing instruction's current PD.
            self._pdpt_tda(self._iid[way])
            iid = access.insn_id
            self._iid[way] = iid
            pd = self._pdl[iid % self._pdpt_n]
            self._pli[way] = pd if pd < self._pl_max else self._pl_max
        elif kind == KIND_GLOBAL:
            self._gp_tda += 1
            gpd = self._gpd
            self._pli[way] = gpd if gpd < self._pl_max else self._pl_max
        self._stamp += 1
        self._lru[way] = self._stamp
        if self._protected or self.access_tap is not None:
            self._done(access, AccessOutcome.HIT)
        return HIT

    def _merge_pending(
        self, base: int, end: int, way: int, access: MemAccess
    ) -> AccessResult:
        block = access.block_addr
        entry = self._mshr_map.get(block)
        if entry is None:
            raise RuntimeError(f"reserved line {block:#x} without MSHR entry")
        if self.non_blocking:
            word: Optional[int] = access.warp_id % self.words_per_line
            merge_full = not self.mshr.can_merge(block, word)
        else:
            word = None
            merge_full = entry.num_requests >= self.mshr.max_merged
        if merge_full:
            if self._kind == KIND_STALL_BYPASS:
                self._bypassed[StallReason.MERGE_FULL.value] += 1
                return self._do_bypass(
                    base, end, access, count_query=True, missed=True
                )
            self.stats.record_stall(StallReason.MERGE_FULL)
            return STALL_MERGE_FULL
        if self._protected:
            self._query(base, end)
        self.stats.loads += 1
        self.stats.hit_reserved += 1
        self.mshr.merge(block, access.waiter, word=word)
        if self._kind == KIND_DLP:
            self._pdpt_tda(self._pnd[way])
            self._pnd[way] = access.insn_id
        elif self._kind == KIND_GLOBAL:
            self._gp_tda += 1
        if self._protected or self.access_tap is not None:
            self._done(access, AccessOutcome.HIT_RESERVED)
        return HIT_RESERVED

    def _handle_miss(self, base: int, end: int, access: MemAccess) -> AccessResult:
        kind = self._kind
        if len(self._mshr_map) >= self._mshr_cap:
            if kind == KIND_STALL_BYPASS:
                self._bypassed[StallReason.MSHR_FULL.value] += 1
                return self._do_bypass(
                    base, end, access, count_query=True, missed=True
                )
            self.stats.record_stall(StallReason.MSHR_FULL)
            return STALL_MSHR_FULL
        if len(self._mq) >= self._mq_depth:
            if kind == KIND_STALL_BYPASS:
                self._bypassed[StallReason.MISS_QUEUE_FULL.value] += 1
                return self._do_bypass(
                    base, end, access, count_query=True, missed=True
                )
            self.stats.record_stall(StallReason.MISS_QUEUE_FULL)
            return STALL_MISS_QUEUE_FULL

        # Query (PL decay) precedes victim selection, as in the paper.
        if self._protected:
            self._query(base, end)
            self._vta_probe_credit(base // self._assoc, access.block_addr)

        way = self._select_victim(base, end)
        if way < 0:
            if kind == KIND_STALL_BYPASS:
                self._bypassed[StallReason.NO_RESERVABLE_LINE.value] += 1
                return self._do_bypass(
                    base, end, access, count_query=False, missed=False
                )
            if self._bypass_enabled:
                self.protected_bypasses += 1
                return self._do_bypass(
                    base, end, access, count_query=False, missed=False
                )
            self.stats.record_stall(StallReason.NO_RESERVABLE_LINE)
            return STALL_NO_RESERVABLE_LINE

        st, blk = self._st, self._blk
        if st[way] == VALID:
            if self._protected:
                self._vta_insert(blk[way], self._iid[way])
            self.stats.evictions += 1
        # invalidate + reserve
        block = access.block_addr
        st[way] = RESERVED
        blk[way] = block
        self._pli[way] = 0
        self._iid[way] = 0
        self._pnd[way] = access.insn_id
        self._stamp += 1
        self._lru[way] = self._stamp
        if kind == KIND_DLP:
            pd = self._pdl[access.insn_id % self._pdpt_n]
            self._pli[way] = pd if pd < self._pl_max else self._pl_max
        elif kind == KIND_GLOBAL:
            gpd = self._gpd
            self._pli[way] = gpd if gpd < self._pl_max else self._pl_max

        self.mshr.allocate(
            block, access.insn_id, access.now, access.waiter,
            word=(access.warp_id % self.words_per_line)
            if self.non_blocking else None,
        )
        self.miss_queue.push(
            FetchRequest(
                block, access.insn_id, self.sm_id, False, False, access.now
            )
        )
        self.stats.loads += 1
        self.stats.misses += 1
        if self._protected or self.access_tap is not None:
            self._done(access, AccessOutcome.MISS)
        return MISS

    def _do_bypass(
        self,
        base: int,
        end: int,
        access: MemAccess,
        count_query: bool,
        missed: bool = True,
    ) -> AccessResult:
        if count_query and self._protected:
            self._query(base, end)
        if missed and self._protected:
            self._vta_probe_credit(base // self._assoc, access.block_addr)
        self.stats.loads += 1
        self.stats.bypasses += 1
        self.stats.sent_fetches += 1
        self.send_fn(
            FetchRequest(
                access.block_addr, access.insn_id, self.sm_id, True, False,
                access.now, access.waiter,
            )
        )
        if self._protected or self.access_tap is not None:
            self._done(access, AccessOutcome.BYPASS)
        return BYPASS

    def _access_write(self, access: MemAccess, base: int, end: int) -> AccessResult:
        block = access.block_addr
        st, blk = self._st, self._blk

        if len(self._mq) >= self._mq_depth:
            if self._kind != KIND_STALL_BYPASS:
                self.stats.record_stall(StallReason.MISS_QUEUE_FULL)
                return STALL_MISS_QUEUE_FULL
            self._bypassed[StallReason.MISS_QUEUE_FULL.value] += 1
            if self._protected:
                self._query(base, end)
            self.stats.stores += 1
            self.stats.write_misses += 1
            self.stats.sent_writes += 1
            self.send_fn(
                FetchRequest(
                    block, access.insn_id, self.sm_id, True, True, access.now
                )
            )
            if self._protected or self.access_tap is not None:
                self._done(access, AccessOutcome.WRITE_MISS)
            return WRITE_MISS

        if self._protected:
            self._query(base, end)
        self.stats.stores += 1
        result = WRITE_MISS
        for w in range(base, end):
            if blk[w] == block and st[w] == VALID:
                # write-evict: invalidate the local copy
                st[w] = INVALID
                blk[w] = -1
                self._pli[w] = 0
                self._iid[w] = 0
                self.stats.write_hits += 1
                self.stats.write_evicts += 1
                result = WRITE_HIT
                break
        else:
            self.stats.write_misses += 1
        self.miss_queue.push(
            FetchRequest(block, access.insn_id, self.sm_id, False, True, access.now)
        )
        if self._protected or self.access_tap is not None:
            self._done(access, result.outcome)
        return result

    # ------------------------------------------------------------------
    # interconnect side
    # ------------------------------------------------------------------

    def drain_miss_queue(self, max_requests: int = 1) -> int:
        fifo = self._mq
        injected = 0
        while injected < max_requests and fifo:
            fetch: FetchRequest = fifo.popleft()
            if fetch.is_write:
                self.stats.sent_writes += 1
            else:
                self.stats.sent_fetches += 1
            self.send_fn(fetch)
            injected += 1
        return injected

    def fill(self, block_addr: int, now: int) -> List[Any]:
        entry = self._mshr_map.pop(block_addr, None)
        if entry is None:
            raise KeyError(f"fill for block {block_addr:#x} with no MSHR entry")
        base = self._set_of(block_addr) * self._assoc
        st, blk = self._st, self._blk
        way = -1
        for w in range(base, base + self._assoc):
            if blk[w] == block_addr and st[w] != INVALID:
                way = w
                break
        if way < 0 or st[way] != RESERVED:
            raise RuntimeError(f"fill for {block_addr:#x} without reserved line")
        st[way] = VALID
        self._iid[way] = self._pnd[way]
        self._stamp += 1
        self._lru[way] = self._stamp
        self.stats.fills += 1
        return entry.waiters

    def reset_stats(self) -> None:
        self.stats = L1DStats()

    # ------------------------------------------------------------------
    # inlined policy internals
    # ------------------------------------------------------------------

    def _query(self, base: int, end: int) -> None:
        """A set query decays the set's Protected Life.  Only protecting
        policies keep PL, so callers skip the call for the others."""
        pli = self._pli
        for w in range(base, end):
            if pli[w] > 0:
                pli[w] -= 1

    def _select_victim(self, base: int, end: int) -> int:
        """First invalid way, else LRU over replaceable valid lines
        (first-wins on stamp ties, like the reference scans)."""
        st, lru = self._st, self._lru
        protected = self._protected
        pli = self._pli
        best = -1
        best_stamp = 0
        for w in range(base, end):
            s = st[w]
            if s == INVALID:
                return w
            if s == VALID and (not protected or pli[w] == 0):
                stamp = lru[w]
                if best < 0 or stamp < best_stamp:
                    best = w
                    best_stamp = stamp
        return best

    def _pdpt_tda(self, insn_id: int) -> None:
        i = insn_id % self._pdpt_n
        if self._pdt[i] < self._tda_hit_max:
            self._pdt[i] += 1
        self._pdu[i] = True
        self._g_tda += 1

    def _vta_probe_credit(self, set_index: int, block_addr: int) -> None:
        """``on_miss``: probe the VTA; a hit consumes the entry and
        credits the owning instruction (DLP) or the global counter (GP)."""
        self._vta_probe_count += 1
        vb = set_index * self._vta_assoc
        valid, tags = self._vta_valid, self._vta_blk
        for j in range(vb, vb + self._vta_assoc):
            if valid[j] and tags[j] == block_addr:
                valid[j] = False
                self._vta_hit_count += 1
                if self._kind == KIND_DLP:
                    owner = self._vta_iid[j]
                    i = owner % self._pdpt_n
                    if self._pdv[i] < self._vta_hit_max:
                        self._pdv[i] += 1
                    self._pdu[i] = True
                    self._g_vta += 1
                else:
                    self._gp_vta += 1
                return

    def _vta_insert(self, block_addr: int, insn_id: int) -> None:
        self._vta_stamp += 1
        vb = self._set_of(block_addr) * self._vta_assoc
        vend = vb + self._vta_assoc
        valid, tags, lru = self._vta_valid, self._vta_blk, self._vta_lru
        victim = -1
        first_invalid = -1
        for j in range(vb, vend):
            if valid[j] and tags[j] == block_addr:
                victim = j
                break
            if first_invalid < 0 and not valid[j]:
                first_invalid = j
        if victim < 0:
            victim = first_invalid
        if victim < 0:
            # LRU fallback, first-wins ties (min over insertion order).
            best_stamp = lru[vb]
            victim = vb
            for j in range(vb + 1, vend):
                if lru[j] < best_stamp:
                    best_stamp = lru[j]
                    victim = j
        valid[victim] = True
        tags[victim] = block_addr
        self._vta_iid[victim] = insn_id
        lru[victim] = self._vta_stamp
        self._vta_insert_count += 1

    # -- sampling ------------------------------------------------------

    def _done(self, access: MemAccess, outcome: AccessOutcome) -> None:
        """Close out one access: tick the sampling window (protecting
        policies) and feed the access tap.  Callers skip the call when
        neither applies."""
        if self._protected:
            self._acc += 1
            if self._acc > self._acc_limit:
                raise RuntimeError(
                    f"sampling window overshot: {self._acc} accesses "
                    f"counted against a limit of {self._acc_limit}"
                )
            if self._acc >= self._acc_limit:
                self._close_sample("accesses")
        tap = self.access_tap
        if tap is not None:
            tap(access, outcome)

    def notify_instructions(self, count: int) -> None:
        if not self._protected:
            return
        self._ins += count
        if self._ins >= self._ins_limit and self._acc > 0:
            self._close_sample("instructions")

    def _close_sample(self, reason: str) -> None:
        self.samples_completed += 1
        self.closed_by[reason] += 1
        self._acc = 0
        self._ins = 0
        self._end_sample()

    def _end_sample(self) -> None:
        nasc = self._nasc
        if nasc < 0:
            # ProtectionKnobs already refuses a negative Nasc.  This
            # guard lets R006 prove the decrease path's PD stores: a
            # negative Nasc there would *raise* PDs past their field.
            raise ValueError(f"Nasc must be non-negative, got {nasc}")
        if self._kind == KIND_DLP:
            g_tda, g_vta = self._g_tda, self._g_vta
            pdt, pdv, pdl = self._pdt, self._pdv, self._pdl
            # Only the entries the window credited have counters to read
            # or clear; compress() finds them without a Python loop.
            entries = range(self._pdpt_n)
            credited = set(compress(entries, pdt))
            credited.update(compress(entries, pdv))
            if g_vta > g_tda:
                path = "increase"
                pd_max = self._pd_max
                for i in credited:
                    delta = pd_increment(nasc, pdv[i], pdt[i])
                    if delta:
                        npd = pdl[i] + delta
                        pdl[i] = npd if npd < pd_max else pd_max
            elif 2 * g_vta < g_tda:
                path = "decrease"
                if nasc:
                    # each store lands on an entry compress() has passed
                    for i in compress(entries, pdl):
                        npd = pdl[i] - nasc
                        pdl[i] = npd if npd > 0 else 0
            else:
                path = "hold"
            for i in credited:
                pdt[i] = 0
                pdv[i] = 0
            self._g_tda = 0
            self._g_vta = 0
        else:  # KIND_GLOBAL
            self._gpd, path = run_global_pd_update(
                self._gpd, self._pd_max, nasc, self._gp_tda, self._gp_vta
            )
            self._gp_tda = 0
            self._gp_vta = 0
        self.pd_updates[path] += 1

    # ------------------------------------------------------------------
    # policy-side reporting / lifecycle (facade targets)
    # ------------------------------------------------------------------

    def policy_stats(self) -> Dict[str, float]:
        kind = self._kind
        if kind == KIND_BASELINE:
            return {}
        if kind == KIND_STALL_BYPASS:
            return {f"bypass_{k}": v for k, v in self._bypassed.items()}
        out: Dict[str, float] = {
            "protected_bypasses": self.protected_bypasses,
            "samples_completed": self.samples_completed,
        }
        if kind == KIND_GLOBAL:
            out["global_pd"] = self._gpd
            out["vta_hits"] = self._vta_hit_count
        else:
            out["vta_hits"] = self._vta_hit_count
            out["vta_inserts"] = self._vta_insert_count
        for path, count in self.pd_updates.items():
            out[f"pd_{path}"] = count
        return out

    def pd_snapshot(self) -> Dict[int, Dict[str, int]]:
        return {
            i: {"tda_hits": self._pdt[i], "vta_hits": self._pdv[i],
                "pd": self._pdl[i]}
            for i in range(self._pdpt_n)
            if self._pdu[i]
        }

    def policy_reset(self) -> None:
        """Between-kernel reset, matching the (fixed) reference contract:
        learned state clears, statistics survive."""
        if not self._protected:
            return
        self._acc = 0
        self._ins = 0
        for j in range(len(self._vta_valid)):
            self._vta_valid[j] = False
            self._vta_blk[j] = -1
            self._vta_iid[j] = 0
            self._vta_lru[j] = 0
        self._vta_stamp = 0
        if self._kind == KIND_DLP:
            for i in range(self._pdpt_n):
                self._pdt[i] = 0
                self._pdv[i] = 0
                self._pdl[i] = 0
            self._g_tda = 0
            self._g_vta = 0
        else:
            self._gpd = 0
            self._gp_tda = 0
            self._gp_vta = 0
