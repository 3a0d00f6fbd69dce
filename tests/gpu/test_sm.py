"""Streaming multiprocessor: issue, CTA accounting, LD/ST integration."""

import numpy as np
import pytest

from repro.core.baseline import BaselinePolicy
from repro.gpu.config import GPUConfig, L1DConfig
from repro.gpu.isa import compute, load, store
from repro.gpu.kernel import Kernel
from repro.gpu.sm import StreamingMultiprocessor


class Harness:
    def __init__(self, config=None):
        self.config = config or GPUConfig(
            num_sms=1, num_partitions=1, max_warps_per_sm=8, max_ctas_per_sm=2,
            l1d=L1DConfig(num_sets=4, assoc=2, hit_latency=2),
        )
        self.now = 0
        self.events = []
        self.sent = []
        self.cta_done = 0
        self.sm = StreamingMultiprocessor(
            0, self.config, BaselinePolicy(), self.schedule,
            self.sent.append, lambda sm: self._on_done(),
        )

    def _on_done(self):
        self.cta_done += 1

    def schedule(self, delay, fn, arg):
        self.events.append([self.now + delay, fn, arg])

    def tick(self, cycles=1):
        for _ in range(cycles):
            for ev in sorted(self.events, key=lambda e: e[0]):
                if ev[0] <= self.now:
                    self.events.remove(ev)
                    ev[1](ev[2])
            self.sm.step(self.now)
            self.now += 1

    def run_to_idle(self, limit=10_000):
        while (not self.sm.is_idle or self.events) and self.now < limit:
            self.tick()
        assert self.now < limit, "SM did not go idle"


def kernel_of(trace_fn, ctas=1, warps=1):
    return Kernel("k", ctas, warps, trace_fn)


class TestComputeIssue:
    def test_counts_thread_instructions(self):
        h = Harness()

        def trace(cta, w):
            yield compute(3)
            yield compute(2)

        h.sm.add_cta(kernel_of(trace), 0, 0)
        h.run_to_idle()
        assert h.sm.thread_insns == 5 * 32
        assert h.sm.warp_insns == 5

    def test_cta_completion_callback(self):
        h = Harness()

        def trace(cta, w):
            yield compute(1)

        h.sm.add_cta(kernel_of(trace, warps=2), 0, 0)
        h.run_to_idle()
        assert h.cta_done == 1
        assert h.sm.active_warps == 0

    def test_empty_cta_completes_immediately(self):
        h = Harness()
        h.sm.add_cta(kernel_of(lambda c, w: iter([])), 0, 0)
        assert h.cta_done == 1


class TestCtaSlots:
    def test_free_slots_respects_warp_budget(self):
        h = Harness()
        # 8 warps max, CTA of 5 warps: only one fits
        assert h.sm.free_slots(5) == 1
        assert h.sm.free_slots(4) == 2
        assert h.sm.free_slots(3) == 2  # slot-limited

    def test_oversized_cta_rejected(self):
        h = Harness()
        with pytest.raises(ValueError):
            h.sm.free_slots(9)

    def test_no_free_slot_raises_on_add(self):
        h = Harness()

        def trace(cta, w):
            yield compute(100)

        kernel = kernel_of(trace, ctas=3, warps=4)
        h.sm.add_cta(kernel, 0, 0)
        h.sm.add_cta(kernel, 1, 10)
        with pytest.raises(RuntimeError):
            h.sm.add_cta(kernel, 2, 20)


class TestMemoryIssue:
    def test_load_walks_through_l1d(self):
        h = Harness()

        def trace(cta, w):
            yield load(0x40, np.arange(32) * 4)
            yield compute(1)

        h.sm.add_cta(kernel_of(trace), 0, 0)
        h.tick(3)
        assert h.sm.l1d.stats.misses == 1
        # complete the fetch
        for waiter in h.sm.l1d.fill(h.sent[0].block_addr, h.now):
            h.sm.complete_request(waiter)
        h.run_to_idle()
        assert h.sm.thread_insns == 32 + 32

    def test_store_does_not_block_warp(self):
        h = Harness()

        def trace(cta, w):
            yield store(0x40, np.arange(32) * 4)
            yield compute(1)

        h.sm.add_cta(kernel_of(trace), 0, 0)
        h.run_to_idle()  # finishes without any fill
        assert h.sm.l1d.stats.stores == 1

    def test_divergent_load_generates_multiple_requests(self):
        h = Harness()

        def trace(cta, w):
            yield load(0x40, np.arange(4) * 128)  # 4 distinct lines

        h.sm.add_cta(kernel_of(trace), 0, 0)
        h.tick(8)
        assert h.sm.l1d.stats.misses == 4
        assert h.sm.ldst.stats.requests_sent == 4

    def test_instruction_notifications_reach_policy(self):
        h = Harness()
        seen = []
        h.sm.policy.notify_instructions = seen.append

        def trace(cta, w):
            yield compute(2)

        h.sm.add_cta(kernel_of(trace), 0, 0)
        h.run_to_idle()
        assert seen == [64]
