"""Load/Store unit.

The LD/ST unit buffers issued warp memory instructions and feeds their
coalesced requests into the L1D at one request per cycle.  When the L1D
cannot absorb a request (MSHR full, no reservable slot, full miss
queue under the baseline policy), the request stays at the head of the
queue and retries — "the miss request will be blocked in the pipeline
register and continue to retry in the following cycles ... all future
accesses to the L1D cache will be stalled" (paper Section 2).  The FIFO
head-of-line blocking here reproduces exactly that behaviour, and its
cost is what Stall-Bypass / DLP's bypass paths remove.

With ``non_blocking=True`` the unit models a non-blocking L1D front
end instead: a stalled head still burns its stall cycle (the retry
occupies the pipeline register), but the unit then offers the L1D the
next queued instruction's request in FIFO order and issues the first
one the cache accepts — hit-under-miss and miss-under-miss service
while the head's miss resources recover.  Scan order alone determines
which request goes first, so the schedule stays deterministic.

Not every stall is side-effect-free.  The L1D reports three reasons
before it touches any state: MSHR full, miss queue full and merge full
(:data:`PURE_STALLS`).  A ``NO_RESERVABLE_LINE`` stall comes after the
set query, so under a protecting policy with bypass disabled each
retry decays the set's Protected Life and probes the VTA.

In blocking mode a head that stalled for a pure reason keeps stalling
until the L1D fills a line or drains its miss queue: only the head
accesses the cache, and nothing else frees an MSHR entry, a merge slot
or a miss-queue slot.  The unit remembers the reason together with the
L1D's fill count and miss-queue length, and while both are unchanged a
retry counts its stall cycle and records the stall in the L1D's stats
exactly as a probe would, without calling ``access``.  The memo checks
itself against L1D state on every retry, so a caller that fills or
drains the cache directly need not tell the unit.  Neither
``NO_RESERVABLE_LINE`` nor non-blocking probing is memoized.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.cache.l1d import AccessOutcome, L1DCache, MemAccess
from repro.core.policy import StallReason
from repro.gpu.warp import Warp

#: Stall reasons the L1D reports before touching any state.
PURE_STALLS = frozenset(
    {StallReason.MSHR_FULL, StallReason.MISS_QUEUE_FULL, StallReason.MERGE_FULL}
)


@dataclass(slots=True)
class MemWork:
    """One warp memory instruction broken into line requests."""

    warp: Optional[Warp]
    blocks: List[int]
    is_write: bool
    pc: int
    insn_id: int
    next_index: int = 0

    @property
    def remaining(self) -> int:
        return len(self.blocks) - self.next_index


@dataclass
class LdStStats:
    issued_loads: int = 0
    issued_stores: int = 0
    requests_sent: int = 0
    stall_cycles: int = 0
    queue_full_rejects: int = 0
    #: Requests issued past a stalled head (non-blocking mode only):
    #: hit-under-miss / miss-under-miss services.
    under_miss_issues: int = 0


class LdStUnit:
    """Per-SM memory pipeline front end."""

    def __init__(
        self,
        l1d: L1DCache,
        hit_latency: int,
        queue_depth: int,
        schedule: Callable[[int, Callable[[Any], None], Any], None],
        complete_request: Callable[[Optional[Warp]], None],
        sm_id: int = 0,
        non_blocking: bool = False,
    ):
        self.l1d = l1d
        self.hit_latency = hit_latency
        self.queue_depth = queue_depth
        self.schedule = schedule
        self.complete_request = complete_request
        self.sm_id = sm_id
        self.non_blocking = non_blocking
        self.queue: Deque[MemWork] = deque()
        self.stats = LdStStats()
        #: (head work, L1D fills, miss-queue length, reason) of the last
        #: pure stall in blocking mode; None when the head must probe.
        self._stall_memo: Optional[Tuple[MemWork, int, int, StallReason]] = None

    # ------------------------------------------------------------------

    @property
    def is_full(self) -> bool:
        return len(self.queue) >= self.queue_depth

    def enqueue(self, work: MemWork) -> None:
        if self.is_full:
            raise RuntimeError("enqueue on full LD/ST queue")
        if work.is_write:
            self.stats.issued_stores += 1
        else:
            self.stats.issued_loads += 1
            work.warp.begin_memory_wait(len(work.blocks))
        self.queue.append(work)

    def _access_for(self, work: MemWork, now: int) -> MemAccess:
        warp = work.warp
        is_write = work.is_write
        # One record per probe: the L1D's access tap may keep it.
        return MemAccess(
            work.blocks[work.next_index], work.pc, work.insn_id, is_write,
            warp.gid if warp else -1, self.sm_id, now,
            None if is_write else warp,
        )

    def step(self, now: int) -> bool:
        """Process (at most) one request this cycle; True on progress."""
        if not self.queue:
            return False
        work = self.queue[0]
        l1d = self.l1d
        memo = self._stall_memo
        if memo is not None:
            if (
                memo[0] is work
                and memo[1] == l1d.stats.fills
                and memo[2] == len(l1d.miss_queue)
            ):
                self.stats.stall_cycles += 1
                l1d.stats.record_stall(memo[3])
                return False
            self._stall_memo = None
        result = l1d.access(self._access_for(work, now))
        if result.is_stall:
            self.stats.stall_cycles += 1
            if not self.non_blocking:
                if result.stall_reason in PURE_STALLS:
                    self._stall_memo = (
                        work, l1d.stats.fills, len(l1d.miss_queue),
                        result.stall_reason,
                    )
                return False
            return self._issue_under_miss(now)

        self._finish_issue(work, result.outcome, index=0)
        return True

    def _issue_under_miss(self, now: int) -> bool:
        """Head stalled: offer later queued instructions to the L1D in
        FIFO order and issue the first accepted one (non-blocking mode)."""
        for i in range(1, len(self.queue)):
            work = self.queue[i]
            result = self.l1d.access(self._access_for(work, now))
            if result.is_stall:
                continue
            self.stats.under_miss_issues += 1
            self._finish_issue(work, result.outcome, index=i)
            return True
        return False

    def _finish_issue(self, work: MemWork, outcome: AccessOutcome, index: int) -> None:
        self.stats.requests_sent += 1
        if outcome is AccessOutcome.HIT:
            self.schedule(self.hit_latency, self.complete_request, work.warp)
        # MISS / HIT_RESERVED waiters complete on fill; BYPASS waiters
        # complete when the interconnect response arrives; writes are
        # fire-and-forget.

        work.next_index += 1
        if work.next_index >= len(work.blocks):
            if index == 0:
                self.queue.popleft()
            else:
                del self.queue[index]

    def pending_requests(self) -> int:
        return sum(w.remaining for w in self.queue)
