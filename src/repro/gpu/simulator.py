"""Top-level GPU timing simulator.

A discrete-event model of the paper's Table 1 machine: SMs step cycle by
cycle while memory-side progress (interconnect delivery, L2 access,
DRAM service, fills) and LD/ST hit completions ride a global event
heap.  Each heap entry is ``(time, seq, fn, arg)`` and fires as
``fn(arg)``, in (time, seq) order.

When no SM can make progress in a cycle, time skips to whatever comes
first: the next event, or the next wake a warp scheduler holds (the
end of a compute run or a store's issue cycle; see
:mod:`repro.gpu.scheduler`).  Memory-bound phases therefore cost
O(events), not O(cycles).  The run ends when no kernel is left to
dispatch, no event or wake is pending and every SM is idle.

One policy *instance* is created per SM: the L1D, its VTA and its PDPT
are private per-core structures in the paper.

Typical use::

    from repro.gpu import GpuSimulator, GPUConfig
    from repro.core import make_policy

    sim = GpuSimulator(kernels, GPUConfig().scaled(4),
                       policy_factory=lambda: make_policy("dlp"))
    result = sim.run()
    print(result.ipc, result.l1d.hit_rate)
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NoReturn, Optional

from repro.cache.l1d import FetchRequest, L1DStats
from repro.core.policy import CachePolicy
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Kernel, as_kernel_list
from repro.gpu.sm import StreamingMultiprocessor
from repro.memory.dram import DramChannel
from repro.memory.interconnect import Interconnect
from repro.memory.partition import MemoryPartition, partition_for


class DeadlockError(RuntimeError):
    """No SM can progress and no event or wake is pending - a model bug."""


@dataclass
class SimResult:
    """Aggregated outcome of one simulation run."""

    cycles: int
    thread_insns: int
    warp_insns: int
    l1d: L1DStats
    interconnect: Dict[str, float]
    l2: Dict[str, float]
    dram: Dict[str, float]
    policy: Dict[str, float]
    per_sm_l1d: List[Dict[str, float]] = field(default_factory=list)
    ldst_stall_cycles: int = 0
    hit_completions: int = 0
    truncated: bool = False

    @property
    def ipc(self) -> float:
        return self.thread_insns / self.cycles if self.cycles else 0.0

    @property
    def mem_access_ratio(self) -> float:
        """Coalesced L1D data requests per thread instruction (the
        paper's Section 3.2 classification metric)."""
        if self.thread_insns == 0:
            return 0.0
        return self.l1d.accesses / self.thread_insns

    def to_dict(self) -> Dict:
        """JSON-serializable form; :meth:`from_dict` is the exact inverse.

        Used by the on-disk result store and the differential oracle, so
        it must be lossless: only raw counters are stored and every field
        round-trips bit-identically through ``json.dumps``/``loads``.
        """
        return {
            "cycles": self.cycles,
            "thread_insns": self.thread_insns,
            "warp_insns": self.warp_insns,
            "l1d": self.l1d.to_raw_dict(),
            "interconnect": dict(self.interconnect),
            "l2": dict(self.l2),
            "dram": dict(self.dram),
            "policy": dict(self.policy),
            "per_sm_l1d": [dict(d) for d in self.per_sm_l1d],
            "ldst_stall_cycles": self.ldst_stall_cycles,
            "hit_completions": self.hit_completions,
            "truncated": self.truncated,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SimResult":
        return cls(
            cycles=int(data["cycles"]),
            thread_insns=int(data["thread_insns"]),
            warp_insns=int(data["warp_insns"]),
            l1d=L1DStats.from_raw_dict(data["l1d"]),
            interconnect=dict(data["interconnect"]),
            l2=dict(data["l2"]),
            dram=dict(data["dram"]),
            policy=dict(data["policy"]),
            per_sm_l1d=[dict(d) for d in data.get("per_sm_l1d", [])],
            ldst_stall_cycles=int(data.get("ldst_stall_cycles", 0)),
            hit_completions=int(data.get("hit_completions", 0)),
            truncated=bool(data.get("truncated", False)),
        )

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": self.cycles,
            "ipc": self.ipc,
            "thread_insns": self.thread_insns,
            "mem_access_ratio": self.mem_access_ratio,
            "l1d_hit_rate": self.l1d.hit_rate,
            "l1d_accesses": self.l1d.accesses,
            "l1d_hits": self.l1d.hits_total,
            "l1d_bypasses": self.l1d.bypasses,
            "l1d_evictions": self.l1d.evictions_total,
            "l1d_serviced": self.l1d.serviced_accesses,
            "icnt_bytes": self.interconnect.get("total_bytes", 0),
        }


class GpuSimulator:
    """Execute a kernel (or sequence of kernels) on the modelled GPU."""

    def __init__(
        self,
        kernels,
        config: GPUConfig,
        policy_factory: Callable[[], CachePolicy],
        max_cycles: Optional[int] = None,
        engine: str = "reference",
    ):
        self.kernels: List[Kernel] = as_kernel_list(kernels)
        if not self.kernels:
            raise ValueError("no kernels to execute")
        self.config = config
        self.max_cycles = max_cycles
        self.now = 0
        self._heap: list = []
        self._seq = 0

        self.interconnect = Interconnect(
            self.schedule, config.icnt_latency, clock=lambda: self.now
        )
        self.partitions = [
            MemoryPartition(
                pid,
                config.l2_geometry(),
                DramChannel(config.dram_service_interval, config.dram_latency),
                self.schedule,
                self._respond,
                config.l2_latency,
                l2_service_interval=config.l2_service_interval,
                response_interval=config.icnt_response_interval,
            )
            for pid in range(config.num_partitions)
        ]
        self.sms = [
            StreamingMultiprocessor(
                sm_id,
                config,
                policy_factory(),
                self.schedule,
                self._send,
                self._on_cta_done,
                engine=engine,
            )
            for sm_id in range(config.num_sms)
        ]
        self._schedulers = [s for sm in self.sms for s in sm.schedulers]

        # kernel dispatch state
        self._kernel_index = 0
        self._next_cta = 0
        self._ctas_done = 0
        self._dispatch_age = 0
        self._finished = False

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[[Any], None], arg: Any) -> None:
        """Run ``fn(arg)`` ``delay`` cycles from now."""
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, arg))

    def attach_l1d_tap(self, tap) -> None:
        """Install ``tap(access, outcome)`` on every SM's L1D.

        The trace recorder uses this to capture the timing run's
        L1D-visible access stream; pass ``None`` to detach."""
        for sm in self.sms:
            sm.l1d.access_tap = tap

    def _send(self, fetch: FetchRequest) -> None:
        """An L1D request leaves its SM toward the memory partitions."""
        self.interconnect.send_request(
            fetch.sm_id, fetch.is_write, self._arrive, fetch
        )

    def _arrive(self, fetch: FetchRequest) -> None:
        partition = self.partitions[
            partition_for(fetch.block_addr, self.config.num_partitions)
        ]
        partition.receive(fetch, self.now)

    def _respond(self, fetch: FetchRequest) -> None:
        """A partition produced read data; route it back to the SM."""
        self.interconnect.send_response(self._deliver, fetch)

    def _deliver(self, fetch: FetchRequest) -> None:
        sm = self.sms[fetch.sm_id]
        if fetch.is_bypass:
            sm.complete_request(fetch.waiter)
            return
        for waiter in sm.l1d.fill(fetch.block_addr, self.now):
            sm.complete_request(waiter)

    # ------------------------------------------------------------------
    # kernel dispatch
    # ------------------------------------------------------------------

    @property
    def current_kernel(self) -> Optional[Kernel]:
        if self._kernel_index >= len(self.kernels):
            return None
        return self.kernels[self._kernel_index]

    def _dispatch(self) -> None:
        """Fill free CTA slots from the current kernel (round-robin)."""
        kernel = self.current_kernel
        if kernel is None:
            return
        while self._next_cta < kernel.num_ctas:
            placed = False
            for sm in self.sms:
                if self._next_cta >= kernel.num_ctas:
                    break
                if sm.free_slots(kernel.warps_per_cta) > 0:
                    warps = sm.add_cta(kernel, self._next_cta, self._dispatch_age)
                    self._dispatch_age += max(warps, 1)
                    self._next_cta += 1
                    placed = True
            if not placed:
                break

    def _on_cta_done(self, sm: StreamingMultiprocessor) -> None:
        self._ctas_done += 1
        kernel = self.current_kernel
        if kernel is None:
            return
        if self._ctas_done >= kernel.num_ctas:
            # kernel drained (all CTAs complete); next launch starts once
            # the dispatcher runs again in the main loop
            self._kernel_index += 1
            self._next_cta = 0
            self._ctas_done = 0
        self._dispatch()

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def _work_remaining(self) -> bool:
        if self._kernel_index < len(self.kernels):
            return True
        if self._heap or self._next_wake() is not None:
            return True
        return any(not sm.is_idle for sm in self.sms)

    def _next_wake(self) -> Optional[int]:
        """Earliest cycle a scheduler holds a wake for, or None."""
        wake = None
        for scheduler in self._schedulers:
            if scheduler.wake_warp is not None and (
                wake is None or scheduler.wake_at < wake
            ):
                wake = scheduler.wake_at
        return wake

    def run(self) -> SimResult:
        self._dispatch()
        # Loop state lives in locals; ``self.now`` is written back each
        # cycle because event callbacks and ``schedule`` read it.  Work
        # is tested once per pass, after the SMs step: the first pass
        # runs unconditionally (with nothing to do it steps idle SMs).
        heap = self._heap
        heappop = heapq.heappop
        sms = self.sms
        num_kernels = len(self.kernels)
        work_remaining = self._work_remaining
        max_cycles = self.max_cycles
        now = self.now
        truncated = False
        while True:
            while heap and heap[0][0] <= now:
                _, _, fn, arg = heappop(heap)
                fn(arg)
            progress = False
            for sm in sms:
                if sm.step(now):
                    progress = True
            # A kernel left to dispatch is work; test it without a call.
            if self._kernel_index >= num_kernels and not work_remaining():
                break
            if max_cycles is not None and now >= max_cycles:
                truncated = True
                break
            if progress:
                now += 1
            else:
                target = self._next_wake()
                if heap and (target is None or heap[0][0] < target):
                    target = heap[0][0]
                if target is None:
                    self._raise_deadlock()
                now = target if target > now else now + 1
            self.now = now
        return self._collect(truncated)

    def _raise_deadlock(self) -> NoReturn:
        details = []
        for sm in self.sms:
            details.append(
                f"SM{sm.sm_id}: warps={sm.active_warps} "
                f"ldst={len(sm.ldst.queue)} mshr={len(sm.l1d.mshr)}"
            )
        raise DeadlockError(
            f"simulation deadlocked at cycle {self.now}: " + "; ".join(details)
        )

    # ------------------------------------------------------------------

    def _collect(self, truncated: bool) -> SimResult:
        stats = [sm.l1d.stats for sm in self.sms]

        l2_total: Dict[str, float] = {}
        dram_total: Dict[str, float] = {}
        for partition in self.partitions:
            for key, value in partition.l2.stats.as_dict().items():
                l2_total[key] = l2_total.get(key, 0) + value
            for key, value in partition.dram.stats.as_dict().items():
                dram_total[key] = dram_total.get(key, 0) + value
        if self.partitions:
            reads = l2_total.get("reads", 0)
            l2_total["hit_rate"] = (l2_total.get("hits", 0) / reads) if reads else 0.0

        policy_total: Dict[str, float] = {}
        for sm in self.sms:
            for key, value in sm.policy.stats().items():
                policy_total[key] = policy_total.get(key, 0) + value

        return SimResult(
            cycles=self.now,
            thread_insns=sum(sm.thread_insns for sm in self.sms),
            warp_insns=sum(sm.warp_insns for sm in self.sms),
            l1d=L1DStats.total(stats),
            interconnect=self.interconnect.stats.as_dict(),
            l2=l2_total,
            dram=dram_total,
            policy=policy_total,
            per_sm_l1d=[s.as_dict() for s in stats],
            ldst_stall_cycles=sum(
                sm.ldst.stats.stall_cycles for sm in self.sms),
            truncated=truncated,
        )
