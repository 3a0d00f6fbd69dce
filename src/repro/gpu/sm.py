"""Streaming Multiprocessor model.

One SM owns: a private L1D (with its policy instance — DLP state is
per-core, as in the paper), two warp schedulers (Table 1), an LD/ST
unit, and up to ``max_ctas_per_sm`` resident CTAs whose warps are
interleaved by the schedulers.

``step(now)`` advances one core cycle: each free scheduler issues one
warp op (compute runs occupy the scheduler for their whole length, the
GTO greedy behaviour), the LD/ST unit feeds one request into the L1D,
and the L1D's miss queue injects one packet into the interconnect.

Wakes: a load's warp wakes when its last request completes
(:meth:`StreamingMultiprocessor.complete_request`, an event).  After a
compute run or a store the warp may issue again exactly when its
scheduler stops being busy, so the scheduler holds that wake
(``wake_at`` / ``wake_warp``) and ``step`` applies it, with the same
``not done and outstanding == 0`` check, before the scheduler's next
pick.  No event is scheduled for it.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.cache.l1d import FetchRequest
from repro.core.policy import CachePolicy
from repro.fastsim import make_l1d
from repro.gpu.coalescer import coalesce
from repro.gpu.config import GPUConfig
from repro.gpu.isa import ComputeOp
from repro.gpu.kernel import Kernel
from repro.gpu.ldst import LdStUnit, MemWork
from repro.gpu.scheduler import make_scheduler
from repro.gpu.warp import Warp


class CtaSlot:
    __slots__ = ("slot_id", "busy", "warps_left")

    def __init__(self, slot_id: int):
        self.slot_id = slot_id
        self.busy = False
        self.warps_left = 0


class StreamingMultiprocessor:
    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        policy: CachePolicy,
        schedule: Callable[[int, Callable[[Any], None], Any], None],
        send_fetch: Callable[[FetchRequest], None],
        on_cta_done: Callable[["StreamingMultiprocessor"], None],
        engine: str = "reference",
    ):
        self.sm_id = sm_id
        self.config = config
        self.schedule = schedule
        self.on_cta_done = on_cta_done
        self.l1d = make_l1d(
            engine,
            config.l1d.geometry(),
            policy,
            send_fn=send_fetch,
            mshr_entries=config.l1d.mshr_entries,
            mshr_merge=config.l1d.mshr_merge,
            miss_queue_depth=config.l1d.miss_queue_depth,
            sm_id=sm_id,
            non_blocking=config.l1d.non_blocking,
        )
        # The policy-side surface the simulator talks to: the policy
        # instance itself (reference) or the packed-state facade (fast).
        self.policy = self.l1d.policy
        self.schedulers = [
            make_scheduler(config.scheduler, i) for i in range(config.schedulers_per_sm)
        ]
        self.ldst = LdStUnit(
            self.l1d,
            hit_latency=config.l1d.hit_latency,
            queue_depth=config.ldst_queue_depth,
            schedule=schedule,
            complete_request=self.complete_request,
            sm_id=sm_id,
            non_blocking=config.l1d.non_blocking,
        )
        self.cta_slots = [CtaSlot(i) for i in range(config.max_ctas_per_sm)]
        # Tested every cycle before draining the miss queue.
        self._miss_fifo = self.l1d.miss_queue.entries
        self.active_warps = 0
        self.thread_insns = 0
        self.warp_insns = 0
        self._age_counter = 0

    # ------------------------------------------------------------------
    # CTA management
    # ------------------------------------------------------------------

    def free_slots(self, warps_per_cta: int) -> int:
        """How many more CTAs of the given size fit right now."""
        if warps_per_cta > self.config.max_warps_per_sm:
            raise ValueError(
                f"CTA of {warps_per_cta} warps exceeds the SM limit "
                f"({self.config.max_warps_per_sm})"
            )
        free = sum(1 for slot in self.cta_slots if not slot.busy)
        warp_room = (self.config.max_warps_per_sm - self.active_warps) // warps_per_cta
        return min(free, warp_room)

    def add_cta(self, kernel: Kernel, cta_id: int, base_age: int) -> int:
        """Place a CTA; returns the number of warps created."""
        slot = next((s for s in self.cta_slots if not s.busy), None)
        if slot is None:
            raise RuntimeError(f"SM{self.sm_id}: no free CTA slot")
        warps = []
        for w in range(kernel.warps_per_cta):
            trace = kernel.warp_trace(cta_id, w)
            warp = Warp(
                gid=(cta_id << 8) | w,
                cta_slot=slot.slot_id,
                age=base_age + w,
                trace=trace,
            )
            if warp.done:  # empty trace: completes instantly
                continue
            warps.append(warp)
        slot.busy = True
        slot.warps_left = len(warps)
        if not warps:
            self._release_slot(slot)
            return 0
        for i, warp in enumerate(warps):
            scheduler = self.schedulers[i % len(self.schedulers)]
            warp.sm = self
            warp.scheduler = scheduler
            scheduler.add_warp(warp)
        self.active_warps += len(warps)
        self._age_counter = max(self._age_counter, base_age + len(warps))
        return len(warps)

    def _release_slot(self, slot: CtaSlot) -> None:
        slot.busy = False
        slot.warps_left = 0
        self.on_cta_done(self)

    def _warp_finished(self, warp: Warp) -> None:
        warp.scheduler.remove_warp(warp)
        self.active_warps -= 1
        slot = self.cta_slots[warp.cta_slot]
        slot.warps_left -= 1
        if slot.warps_left == 0:
            self._release_slot(slot)

    # ------------------------------------------------------------------
    # per-cycle step
    # ------------------------------------------------------------------

    def step(self, now: int) -> bool:
        progress = False
        # Runs for every SM every cycle: a busy scheduler, an empty LD/ST
        # queue and an empty miss queue cost an attribute test, not a call.
        for scheduler in self.schedulers:
            if now >= scheduler.busy_until:
                woken = scheduler.wake_warp
                if woken is not None:
                    scheduler.wake_warp = None
                    self._wake(woken)
                warp = scheduler.pick(now)
                if warp is not None and self._issue(scheduler, warp, now):
                    progress = True
        ldst = self.ldst
        if ldst.queue and ldst.step(now):
            progress = True
        if self._miss_fifo and self.l1d.drain_miss_queue(1):
            progress = True
        return progress

    def _issue(self, scheduler, warp: Warp, now: int) -> bool:
        """Issue ``warp``'s next op, just picked from ``scheduler``."""
        op = warp.current_op
        if type(op) is ComputeOp:
            n = op.count
            scheduler.consume(warp, n, now)
            warp.insns_issued += n
            count = n * self.config.warp_size
            warp.thread_insns += count
            self.thread_insns += count
            self.warp_insns += n
            self.policy.notify_instructions(count)
            warp.advance()
            if warp.done:
                if warp.outstanding == 0:
                    self._warp_finished(warp)
                # else: the LD/ST completion path finishes it.
            else:
                warp.ready_time = now + n
            # The wake of a finished warp wakes nothing, but it still
            # keeps the run going until the scheduler's busy window ends.
            scheduler.wake_at = now + n
            scheduler.wake_warp = warp
            return True

        # memory op
        ldst = self.ldst
        if len(ldst.queue) >= ldst.queue_depth:
            ldst.stats.queue_full_rejects += 1
            return False
        blocks = coalesce(op.addrs, self.config.l1d.line_size)
        scheduler.consume(warp, 1, now)
        warp.insns_issued += 1
        lanes = op.active_lanes
        warp.thread_insns += lanes
        self.thread_insns += lanes
        self.warp_insns += 1
        self.policy.notify_instructions(lanes)
        warp.advance()
        ldst.enqueue(MemWork(warp, blocks, op.is_write, op.pc, op.insn_id))
        if op.is_write:
            # stores are fire-and-forget for the warp
            if warp.done:
                self._warp_finished(warp)
            else:
                warp.ready_time = now + 1
                scheduler.wake_at = now + 1
                scheduler.wake_warp = warp
        # loads: begin_memory_wait ran inside enqueue; the warp wakes (or
        # finishes) via complete_request
        return True

    def _wake(self, warp: Warp) -> None:
        if not warp.done and warp.outstanding == 0:
            warp.scheduler.notify_ready(warp)

    def complete_request(self, warp: Optional[Warp]) -> None:
        """One memory request of a warp finished (hit latency elapsed,
        MSHR fill, or bypass response)."""
        if warp is None:
            return
        woke = warp.complete_request(0)
        if not woke:
            return
        if warp.done:
            self._warp_finished(warp)
        else:
            warp.scheduler.notify_ready(warp)

    # ------------------------------------------------------------------

    @property
    def is_idle(self) -> bool:
        return self.active_warps == 0 and not self.ldst.queue
