"""LD/ST unit: request pacing, head-of-line blocking and the stall memo."""

import pytest

from repro.cache.l1d import MemAccess
from repro.cache.tagarray import CacheGeometry
from repro.core import make_policy
from repro.fastsim import FastL1DCache, make_l1d
from repro.gpu.isa import load
from repro.gpu.ldst import LdStUnit, MemWork
from repro.gpu.warp import Warp

ENGINES = ("reference", "fast")


class Harness:
    """One LD/ST unit over a 2-set x 2-way L1D (linear index: even
    blocks map to set 0, odd blocks to set 1)."""

    def __init__(self, mshr_entries=2, queue_depth=2, engine="reference",
                 policy="baseline", mshr_merge=8, miss_queue_depth=8,
                 non_blocking=False, **policy_kwargs):
        self.completed = []
        self.events = []
        self.l1d = make_l1d(
            engine,
            CacheGeometry(num_sets=2, assoc=2, index_fn="linear"),
            make_policy(policy, **policy_kwargs),
            send_fn=lambda f: None,
            mshr_entries=mshr_entries,
            mshr_merge=mshr_merge,
            miss_queue_depth=miss_queue_depth,
            non_blocking=non_blocking,
        )
        self.ldst = LdStUnit(
            self.l1d,
            hit_latency=3,
            queue_depth=queue_depth,
            schedule=lambda d, fn, arg: self.events.append((fn, arg)),
            complete_request=self.completed.append,
            non_blocking=non_blocking,
        )
        # Every block the unit offers the L1D, in order.
        self.probes = []
        access = self.l1d.access

        def counting_access(request):
            self.probes.append(request.block_addr)
            return access(request)

        self.l1d.access = counting_access

    def fire_events(self):
        while self.events:
            fn, arg = self.events.pop(0)
            fn(arg)


def warp_with_load(gid=0):
    return Warp(gid=gid, cta_slot=0, age=gid, trace=iter([load(0, [0])]))


def work(warp, blocks, is_write=False):
    return MemWork(warp=warp, blocks=blocks, is_write=is_write, pc=0, insn_id=0)


class TestPacing:
    def test_one_request_per_step(self):
        h = Harness(mshr_entries=4)
        w = warp_with_load()
        h.ldst.enqueue(work(w, [0, 1, 2]))
        assert w.outstanding == 3
        h.ldst.step(0)
        assert h.ldst.stats.requests_sent == 1
        h.ldst.step(1)
        h.ldst.step(2)
        assert h.ldst.stats.requests_sent == 3
        assert not h.ldst.queue

    def test_fifo_across_warps(self):
        h = Harness()
        a, b = warp_with_load(0), warp_with_load(1)
        h.ldst.enqueue(work(a, [0]))
        h.ldst.enqueue(work(b, [1]))
        h.ldst.step(0)
        assert h.ldst.queue[0].warp is b

    def test_queue_depth_enforced(self):
        h = Harness(queue_depth=1)
        h.ldst.enqueue(work(warp_with_load(0), [0]))
        assert len(h.ldst.queue) == h.ldst.queue_depth
        with pytest.raises(RuntimeError):
            h.ldst.enqueue(work(warp_with_load(1), [1]))


class TestHeadOfLineBlocking:
    def test_stall_blocks_everything_behind(self):
        # MSHR of 2: two misses fill it; the third request stalls and the
        # fourth (a would-be hit) cannot proceed either
        h = Harness(mshr_entries=2, queue_depth=4)
        a = warp_with_load(0)
        h.ldst.enqueue(work(a, [0, 1, 2]))   # 3 distinct lines
        h.ldst.step(0)
        h.ldst.step(1)
        assert not h.ldst.step(2)            # MSHR full: stall
        assert h.ldst.stats.stall_cycles == 1
        assert not h.ldst.step(3)            # still blocked
        # a fill frees the MSHR; retry succeeds
        h.l1d.fill(0, 4)
        assert h.ldst.step(4)

    def test_hit_completion_scheduled_at_hit_latency(self):
        h = Harness()
        w = warp_with_load()
        # prefill line 0
        h.l1d.access(MemAccess(block_addr=0))
        h.l1d.fill(0, 0)
        h.ldst.enqueue(work(w, [0]))
        h.ldst.step(1)
        assert not h.completed
        h.fire_events()
        assert h.completed == [w]


class TestWrites:
    def test_write_work_does_not_wait(self):
        h = Harness()
        w = Warp(gid=0, cta_slot=0, age=0, trace=iter([load(0, [0])]))
        h.ldst.enqueue(work(w, [0], is_write=True))
        assert w.outstanding == 0
        h.ldst.step(0)
        assert h.l1d.stats.stores == 1

    def test_pending_requests_counts_remaining(self):
        h = Harness()
        h.ldst.enqueue(work(warp_with_load(), [0, 1, 2]))
        h.ldst.step(0)
        assert h.ldst.pending_requests() == 2


def _fast_way(l1d, block):
    base = l1d.geometry.set_index(block) * l1d._assoc
    return next(w for w in range(base, base + l1d._assoc) if l1d._blk[w] == block)


def protected_life(l1d, block):
    """Protected Life of the line holding ``block``, on either engine."""
    if isinstance(l1d, FastL1DCache):
        return l1d._pli[_fast_way(l1d, block)]
    return l1d.tags.probe(block).protected_life


def set_protected_life(l1d, block, value):
    if isinstance(l1d, FastL1DCache):
        l1d._pli[_fast_way(l1d, block)] = value
    else:
        l1d.tags.probe(block).protected_life = value


@pytest.mark.parametrize("engine", ENGINES)
class TestStallMemo:
    """A blocking head that stalled before touching L1D state retries
    without probing until the L1D fills or drains."""

    def test_mshr_full_retry_counts_without_probing(self, engine):
        h = Harness(mshr_entries=2, engine=engine)
        h.ldst.enqueue(work(warp_with_load(), [0, 1, 2]))
        assert h.ldst.step(0) and h.ldst.step(1)
        assert not h.ldst.step(2)            # MSHR full: probed once
        assert h.probes == [0, 1, 2]
        for cycle in range(3, 8):
            assert not h.ldst.step(cycle)
            assert h.ldst.stats.stall_cycles == cycle - 1
            assert h.l1d.stats.stalls == {"mshr_full": cycle - 1}
        assert h.probes == [0, 1, 2]         # no probe while memoized

    def test_fill_ends_the_memo(self, engine):
        h = Harness(mshr_entries=2, engine=engine)
        h.ldst.enqueue(work(warp_with_load(), [0, 1, 2]))
        h.ldst.step(0)
        h.ldst.step(1)
        assert not h.ldst.step(2)
        assert not h.ldst.step(3)
        h.l1d.fill(0, 4)
        assert h.ldst.step(4)                # re-probed and issued
        assert h.probes == [0, 1, 2, 2]
        assert h.l1d.stats.misses == 3
        assert h.l1d.stats.stalls == {"mshr_full": 2}

    def test_drain_ends_the_memo(self, engine):
        h = Harness(mshr_entries=4, miss_queue_depth=1, engine=engine)
        h.ldst.enqueue(work(warp_with_load(), [0, 1]))
        assert h.ldst.step(0)
        assert not h.ldst.step(1)            # miss queue full
        assert not h.ldst.step(2)
        assert h.probes == [0, 1]
        assert h.l1d.drain_miss_queue(1) == 1
        assert h.ldst.step(3)
        assert h.probes == [0, 1, 1]
        assert h.l1d.stats.stalls == {"miss_queue_full": 2}

    def test_merge_full_retry_is_memoized(self, engine):
        h = Harness(mshr_merge=1, engine=engine)
        h.ldst.enqueue(work(warp_with_load(0), [0]))
        h.ldst.enqueue(work(warp_with_load(1), [0]))
        assert h.ldst.step(0)
        assert not h.ldst.step(1)            # one merge slot, taken
        assert not h.ldst.step(2)
        assert h.probes == [0, 0]
        h.l1d.fill(0, 3)
        assert h.ldst.step(3)                # now a hit
        assert h.probes == [0, 0, 0]
        assert h.l1d.stats.hits == 1
        assert h.l1d.stats.stalls == {"merge_full": 2}

    def test_no_reservable_line_is_probed_every_retry(self, engine):
        # Set 0 holds valid block 0 and pending block 2; block 4 finds
        # no reservable line while block 0 is protected.  Every retry
        # queries the set, so block 0's Protected Life decays by one per
        # step until it can be evicted.
        h = Harness(engine=engine, policy="dlp", bypass_enabled=False)
        h.ldst.enqueue(work(warp_with_load(0), [0]))
        assert h.ldst.step(0)
        h.l1d.fill(0, 1)
        h.ldst.enqueue(work(warp_with_load(1), [2]))
        assert h.ldst.step(1)
        set_protected_life(h.l1d, 0, 3)
        h.ldst.enqueue(work(warp_with_load(2), [4]))
        assert not h.ldst.step(2)
        assert protected_life(h.l1d, 0) == 2
        assert not h.ldst.step(3)
        assert protected_life(h.l1d, 0) == 1
        assert h.l1d.stats.stalls == {"no_reservable_line": 2}
        assert h.ldst.step(4)                # PL reached 0: evicted
        assert h.probes == [0, 2, 4, 4, 4]
        assert h.l1d.stats.evictions == 1

    def test_non_blocking_never_memoizes(self, engine):
        h = Harness(mshr_entries=2, queue_depth=4, engine=engine,
                    non_blocking=True)
        h.ldst.enqueue(work(warp_with_load(), [0, 1, 2]))
        h.ldst.step(0)
        h.ldst.step(1)
        for cycle in range(2, 6):
            assert not h.ldst.step(cycle)
        assert h.probes == [0, 1, 2, 2, 2, 2]
        assert h.ldst.stats.stall_cycles == 4
        assert h.l1d.stats.stalls == {"mshr_full": 4}
