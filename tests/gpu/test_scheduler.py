"""GTO and LRR warp schedulers."""

import pytest

from repro.gpu.isa import compute
from repro.gpu.scheduler import GtoScheduler, LrrScheduler, make_scheduler
from repro.gpu.warp import Warp


def make_warp(gid, age, n_ops=5):
    return Warp(gid=gid, cta_slot=0, age=age, trace=iter([compute(1)] * n_ops))


class TestGto:
    def test_picks_oldest_first(self):
        sched = GtoScheduler()
        young = make_warp(1, age=10)
        old = make_warp(0, age=2)
        sched.add_warp(young)
        sched.add_warp(old)
        assert sched.pick(0) is old

    def test_greedy_sticks_to_last_warp(self):
        sched = GtoScheduler()
        a, b = make_warp(0, 0), make_warp(1, 1)
        sched.add_warp(a)
        sched.add_warp(b)
        picked = sched.pick(0)
        sched.consume(picked, 1, 0)
        sched.notify_ready(picked)  # becomes ready again next cycle
        assert sched.pick(1) is picked  # greedy: same warp, not the other

    def test_falls_back_when_greedy_warp_not_ready(self):
        sched = GtoScheduler()
        a, b = make_warp(0, 0), make_warp(1, 1)
        sched.add_warp(a)
        sched.add_warp(b)
        sched.consume(a, 1, 0)  # a issued, not re-notified (e.g. at memory)
        assert sched.pick(1) is b

    def test_busy_until_blocks_issue(self):
        sched = GtoScheduler()
        a = make_warp(0, 0)
        sched.add_warp(a)
        sched.consume(a, 5, 0)
        sched.notify_ready(a)
        assert sched.pick(3) is None       # busy until cycle 5
        assert sched.pick(5) is a

    def test_stale_heap_entries_skipped(self):
        sched = GtoScheduler()
        a, b = make_warp(0, 0), make_warp(1, 1)
        sched.add_warp(a)
        sched.add_warp(b)
        sched.consume(a, 1, 0)   # a's heap entry is now stale
        sched.last_warp = None   # disable greedy shortcut
        assert sched.pick(1) is b

    def test_remove_warp(self):
        sched = GtoScheduler()
        a = make_warp(0, 0)
        sched.add_warp(a)
        sched.remove_warp(a)
        assert sched.pick(0) is None
        assert sched.last_warp is None or sched.last_warp is not a

    def test_done_warp_not_renotified(self):
        sched = GtoScheduler()
        a = make_warp(0, 0, n_ops=1)
        sched.add_warp(a)
        a.advance()  # done
        sched.notify_ready(a)
        sched.last_warp = None
        assert sched.pick(0) is None

    def test_empty_scheduler(self):
        assert GtoScheduler().pick(0) is None


class TestLrr:
    def test_rotates_through_ready_warps(self):
        sched = LrrScheduler()
        warps = [make_warp(i, i) for i in range(3)]
        for w in warps:
            sched.add_warp(w)
        order = []
        for cycle in range(3):
            w = sched.pick(cycle)
            order.append(w.gid)
            sched.consume(w, 1, cycle)
            sched.notify_ready(w)
        assert order == [0, 1, 2]

    def test_skips_unready(self):
        sched = LrrScheduler()
        a, b = make_warp(0, 0), make_warp(1, 1)
        sched.add_warp(a)
        sched.add_warp(b)
        sched.consume(a, 1, 0)  # a issued and was not re-notified
        assert sched.pick(1) is b

    def test_busy_until_blocks_issue(self):
        sched = LrrScheduler()
        a = make_warp(0, 0)
        sched.add_warp(a)
        sched.consume(a, 5, 0)
        sched.notify_ready(a)
        assert sched.pick(3) is None       # busy until cycle 5
        assert sched.pick(5) is a


class TestFactory:
    def test_names(self):
        assert isinstance(make_scheduler("gto"), GtoScheduler)
        assert isinstance(make_scheduler("lrr"), LrrScheduler)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("random")
