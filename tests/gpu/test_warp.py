"""Warp state machine."""

import pytest

from repro.gpu.isa import compute, load
from repro.gpu.scheduler import GtoScheduler
from repro.gpu.warp import Warp


def make_warp(ops):
    return Warp(gid=0, cta_slot=0, age=0, trace=iter(ops))


class TestTraceWalk:
    def test_empty_trace_is_done_immediately(self):
        assert make_warp([]).done

    def test_peek_then_advance(self):
        w = make_warp([compute(2), compute(3)])
        assert w.peek().count == 2
        w.advance()
        assert w.peek().count == 3
        w.advance()
        assert w.done

    def test_advance_past_end_raises(self):
        w = make_warp([compute(1)])
        w.advance()
        with pytest.raises(RuntimeError):
            w.advance()


class TestMemoryWait:
    def test_wait_and_complete(self):
        w = make_warp([load(0, [0]), compute(1)])
        w.begin_memory_wait(3)
        assert w.outstanding == 3
        assert not w.complete_request()
        assert not w.complete_request()
        assert w.complete_request()    # the last one reports the wake
        assert w.outstanding == 0
        assert not w.ready             # the scheduler sets the flag

    def test_spurious_completion_raises(self):
        w = make_warp([compute(1)])
        with pytest.raises(RuntimeError):
            w.complete_request()

    def test_zero_requests_rejected(self):
        w = make_warp([compute(1)])
        with pytest.raises(ValueError):
            w.begin_memory_wait(0)


class TestReadiness:
    def test_ready_time_gates(self):
        # Readiness is the scheduler's flag: set on notify, cleared at
        # issue, and a busy scheduler picks nothing until busy_until.
        sched = GtoScheduler()
        w = make_warp([compute(1), compute(1)])
        assert not w.ready
        sched.add_warp(w)
        assert w.ready
        sched.consume(w, 10, 0)
        assert not w.ready
        sched.notify_ready(w)
        assert sched.pick(9) is None
        assert sched.pick(10) is w

    def test_done_warp_never_ready(self):
        w = make_warp([])
        GtoScheduler().notify_ready(w)
        assert not w.ready
