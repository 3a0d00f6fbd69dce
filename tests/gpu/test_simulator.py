"""Timing simulator: end-to-end execution, accounting and invariants."""

import dataclasses

import numpy as np
import pytest

from repro.core import make_policy
from repro.gpu import GPUConfig, GpuSimulator, Kernel, compute, load, store
from repro.gpu.scheduler import SCHEDULERS
from repro.gpu.simulator import DeadlockError


def run(kernels, config, policy="baseline", **kw):
    sim = GpuSimulator(kernels, config, lambda: make_policy(policy), **kw)
    return sim.run()


def compute_only(cta, w):
    yield compute(10)
    yield compute(10)


def one_load(cta, w):
    yield compute(2)
    yield load(0x100, np.arange(32) * 4 + (cta * 64 + w) * 4096)
    yield compute(2)


class TestBasicExecution:
    def test_compute_only_kernel_completes(self, tiny_config):
        result = run(Kernel("c", 2, 2, compute_only), tiny_config)
        # 2 CTAs x 2 warps x 20 warp-instructions x 32 threads
        assert result.thread_insns == 2 * 2 * 20 * 32
        assert result.cycles > 0
        assert result.ipc > 0

    def test_ipc_bounded_by_issue_width(self, tiny_config):
        result = run(Kernel("c", 2, 2, compute_only), tiny_config)
        max_ipc = tiny_config.schedulers_per_sm * tiny_config.warp_size
        assert result.ipc <= max_ipc + 1e-9

    def test_loads_reach_the_cache(self, tiny_config):
        result = run(Kernel("l", 2, 2, one_load), tiny_config)
        assert result.l1d.loads == 4
        assert result.l1d.misses == 4   # all cold
        assert result.l1d.fills == 4

    def test_memory_latency_costs_cycles(self, tiny_config):
        fast = run(Kernel("c", 1, 1, compute_only), tiny_config)
        slow = run(Kernel("l", 1, 1, one_load), tiny_config)
        assert slow.cycles > fast.cycles

    def test_stores_are_fire_and_forget(self, tiny_config):
        def trace(cta, w):
            yield store(0x10, np.arange(32) * 4)
            yield compute(1)

        result = run(Kernel("s", 1, 1, trace), tiny_config)
        assert result.l1d.stores == 1
        assert result.l1d.sent_writes == 1

    def test_interconnect_traffic_counted(self, tiny_config):
        result = run(Kernel("l", 2, 2, one_load), tiny_config)
        assert result.interconnect["request_packets"] == 4
        assert result.interconnect["response_packets"] == 4
        assert result.interconnect["total_bytes"] > 0

    def test_l2_and_dram_stats_propagate(self, tiny_config):
        result = run(Kernel("l", 2, 2, one_load), tiny_config)
        assert result.dram["reads"] == result.l2["dram_reads"]
        assert result.l2["reads"] == 4


class TestKernelSequencing:
    def test_kernels_run_in_order(self, tiny_config):
        calls = []

        def k1(cta, w):
            calls.append("k1")
            yield compute(1)

        def k2(cta, w):
            calls.append("k2")
            yield compute(1)

        run([Kernel("k1", 1, 1, k1), Kernel("k2", 1, 1, k2)], tiny_config)
        assert calls == ["k1", "k2"]

    def test_many_ctas_dispatch_in_waves(self, tiny_config):
        # 8 CTAs on one SM with 2 slots: requires slot recycling
        result = run(Kernel("c", 8, 2, compute_only), tiny_config)
        assert result.thread_insns == 8 * 2 * 20 * 32

    def test_empty_kernel_list_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            GpuSimulator([], tiny_config, lambda: make_policy("baseline"))


class TestMshrMergeTiming:
    def test_same_block_loads_merge(self, tiny_config):
        def trace(cta, w):
            yield load(0x10, np.full(32, 0x8000))
            yield compute(1)

        result = run(Kernel("m", 1, 2, trace), tiny_config)
        # one warp misses, the other merges (pending hit)
        assert result.l1d.misses == 1
        assert result.l1d.hit_reserved == 1
        assert result.l2["reads"] == 1


class TestSharing:
    def test_second_pass_hits(self, tiny_config):
        def trace(cta, w):
            yield load(0x10, np.full(32, 0x9000))
            yield compute(5)
            yield load(0x18, np.full(32, 0x9000))

        result = run(Kernel("h", 1, 1, trace), tiny_config)
        assert result.l1d.hits == 1


class TestTruncation:
    def test_max_cycles_truncates(self, tiny_config):
        def endless(cta, w):
            for i in range(10_000):
                yield compute(10)

        result = run(Kernel("e", 1, 1, endless), tiny_config, max_cycles=200)
        assert result.truncated
        assert result.cycles <= 201


class TestMemAccessRatio:
    def test_ratio_matches_definition(self, tiny_config):
        result = run(Kernel("l", 2, 2, one_load), tiny_config)
        assert result.mem_access_ratio == pytest.approx(
            result.l1d.accesses / result.thread_insns
        )

    def test_summary_keys(self, tiny_config):
        result = run(Kernel("l", 1, 1, one_load), tiny_config)
        summary = result.summary()
        for key in ("cycles", "ipc", "l1d_hit_rate", "icnt_bytes"):
            assert key in summary


class TestDeterminism:
    def test_same_run_same_results(self, tiny_config):
        r1 = run(Kernel("l", 2, 2, one_load), tiny_config)
        r2 = run(Kernel("l", 2, 2, one_load), tiny_config)
        assert r1.cycles == r2.cycles
        assert r1.l1d.as_dict() == r2.l1d.as_dict()


def lanes_of(cta, w):
    """One fully coalesced line per warp, distinct across warps."""
    return np.arange(32) * 4 + (cta * 64 + w) * 4096


def load_between_runs(cta, w):
    yield compute(2)
    yield load(0x100, lanes_of(cta, w))
    yield compute(7)


def load_store_run(cta, w):
    yield load(0x100, lanes_of(cta, w))
    yield store(0x108, lanes_of(cta, w))
    yield compute(3)


def run_then_load(cta, w):
    yield compute(2)
    yield load(0x100, lanes_of(cta, w))


def run_then_store(cta, w):
    yield compute(2)
    yield store(0x100, lanes_of(cta, w))


class TestEndOfRunCycle:
    """The cycle a run ends on, pinned exactly (values taken before
    schedulers held compute and store wakes themselves): a kernel that
    ends in a compute run ends when the run does, not when its last
    event fires."""

    #: trace -> (gto cycles, lrr cycles); 3 CTAs x 5 warps, dlp.
    EXPECTED = {
        compute_only: (120, 120),
        load_between_runs: (318, 324),
        load_store_run: (324, 324),
        run_then_load: (310, 312),
        run_then_store: (33, 33),
    }

    @pytest.mark.parametrize("engine", ("reference", "fast"))
    @pytest.mark.parametrize("scheduler", ("gto", "lrr"))
    @pytest.mark.parametrize("trace", list(EXPECTED), ids=lambda f: f.__name__)
    def test_exact_cycles(self, trace, scheduler, engine):
        config = dataclasses.replace(GPUConfig().scaled(2), scheduler=scheduler)
        result = run(Kernel("k", 3, 5, trace), config, policy="dlp", engine=engine)
        assert result.cycles == self.EXPECTED[trace][scheduler == "lrr"]


def divergent_load_run(cta, w):
    """A load of eight lines per warp, then a store and a compute run."""
    yield load(0x100, np.arange(32) * 32 + (cta * 64 + w) * 4096)
    yield store(0x108, lanes_of(cta, w))
    yield compute(3)


class TestReadinessFlag:
    @pytest.mark.parametrize("scheduler", ("gto", "lrr"))
    @pytest.mark.parametrize(
        "trace", (load_between_runs, divergent_load_run, run_then_store),
        ids=lambda f: f.__name__,
    )
    def test_picked_warps_can_issue(self, monkeypatch, trace, scheduler):
        """The ready flag is the whole of readiness: every warp a
        scheduler picks is unfinished and waits on no memory request."""
        cls = SCHEDULERS[scheduler]
        pick = cls.pick
        bad = []
        picks = 0

        def checked(self, now):
            nonlocal picks
            warp = pick(self, now)
            if warp is not None:
                picks += 1
                if warp.done or warp.outstanding or not warp.ready:
                    bad.append((now, warp))
            return warp

        monkeypatch.setattr(cls, "pick", checked)
        config = dataclasses.replace(GPUConfig().scaled(2), scheduler=scheduler)
        run(Kernel("k", 3, 5, trace), config, policy="dlp")
        assert picks and not bad


class TestDeadlock:
    @pytest.mark.parametrize("engine", ("reference", "fast"))
    def test_lost_fetches_deadlock(self, engine):
        """Fetches that never reach memory leave warps waiting with no
        event or wake pending: the loop must raise, not spin or end."""
        sim = GpuSimulator(
            Kernel("d", 2, 2, load_between_runs), GPUConfig().scaled(2),
            lambda: make_policy("baseline"), engine=engine,
        )
        for sm in sim.sms:
            sm.l1d.send_fn = lambda fetch: None
        with pytest.raises(DeadlockError, match="deadlocked at cycle 4:"):
            sim.run()
