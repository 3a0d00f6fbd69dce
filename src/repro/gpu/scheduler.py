"""Warp schedulers.

Table 1: two schedulers per SM with the GTO (greedy-then-oldest) policy.
GTO keeps issuing from the most recently issued warp while it stays
ready, otherwise it falls back to the oldest (lowest dispatch age) ready
warp.  A loose-round-robin (LRR) scheduler is provided for comparison
runs.

The ready set is a lazy-deletion min-heap keyed by warp age: a warp is
pushed whenever it becomes ready, and ``push_count`` invalidates stale
entries, keeping every scheduler operation O(log n) per the
profiling-first performance guidance (the scheduler runs every cycle).

A compute run or a store keeps the scheduler busy until exactly the
cycle its warp may issue again, so the scheduler holds that wake
itself (``wake_at``, ``wake_warp``) instead of the event heap: nothing
reads the warp's readiness while the scheduler is busy.  The SM
applies the wake the first time it steps the scheduler at or after
``busy_until``, just before :meth:`GtoScheduler.pick`.  A run that
ends its warp still leaves a wake, so the simulator visits the cycle
the run ends on.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.gpu.warp import Warp


class GtoScheduler:
    """Greedy-then-oldest issue selection for one scheduler slot."""

    name = "gto"

    def __init__(self, scheduler_id: int = 0):
        self.scheduler_id = scheduler_id
        self.warps: List[Warp] = []
        self._ready_heap: list = []
        self.busy_until: int = 0
        self.last_warp: Optional[Warp] = None
        self.issued_ops = 0
        #: Pending wake: ``wake_warp`` becomes issuable at ``wake_at``
        #: (== ``busy_until``); None once the SM has applied it.
        self.wake_at: int = 0
        self.wake_warp: Optional[Warp] = None

    def add_warp(self, warp: Warp) -> None:
        self.warps.append(warp)
        self.notify_ready(warp)

    def remove_warp(self, warp: Warp) -> None:
        self.warps.remove(warp)
        warp.ready = False
        if self.last_warp is warp:
            self.last_warp = None

    def notify_ready(self, warp: Warp) -> None:
        """A warp became issuable (wake from memory/compute latency)."""
        if warp.done:
            return
        warp.ready = True
        warp.push_count += 1
        heapq.heappush(self._ready_heap, (warp.age, warp.push_count, warp))

    def can_issue(self, now: int) -> bool:
        return now >= self.busy_until

    def pick(self, now: int) -> Optional[Warp]:
        """Select the warp to issue from this cycle (does not consume it;
        the SM calls :meth:`consume` once the op actually issues)."""
        if not self.can_issue(now):
            return None
        last = self.last_warp
        if last is not None and last.ready and last.is_ready(now):
            return last
        heap = self._ready_heap
        while heap:
            age, count, warp = heap[0]
            if count != warp.push_count or not warp.ready or warp.done:
                heapq.heappop(heap)  # stale entry
                continue
            if warp.is_ready(now):
                return warp
            # Ready flag set but gated by ready_time (future wake); the
            # wake event will re-push it, so drop this entry.
            heapq.heappop(heap)
            warp.ready = False
            return None
        return None

    def consume(self, warp: Warp, busy_cycles: int, now: int) -> None:
        """Commit the issue: occupy the scheduler and clear readiness."""
        warp.ready = False
        self.busy_until = now + busy_cycles
        self.last_warp = warp
        self.issued_ops += 1


class LrrScheduler(GtoScheduler):
    """Loose round robin: rotate through ready warps in warp order."""

    name = "lrr"

    def __init__(self, scheduler_id: int = 0):
        super().__init__(scheduler_id)
        self._next_index = 0

    def notify_ready(self, warp: Warp) -> None:
        # LRR scans the warp list directly; no ready heap to maintain.
        if not warp.done:
            warp.ready = True

    def pick(self, now: int) -> Optional[Warp]:
        if not self.can_issue(now):
            return None
        n = len(self.warps)
        for offset in range(n):
            warp = self.warps[(self._next_index + offset) % n]
            if warp.is_ready(now) and not warp.done:
                self._next_index = (self._next_index + offset + 1) % n
                return warp
        return None


SCHEDULERS = {"gto": GtoScheduler, "lrr": LrrScheduler}


def make_scheduler(name: str, scheduler_id: int = 0) -> GtoScheduler:
    try:
        return SCHEDULERS[name](scheduler_id)
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; expected one of {sorted(SCHEDULERS)}"
        ) from None
