"""Warp execution state.

A warp walks its instruction trace in order.  ``ready`` is the whole
of its readiness: the warp's scheduler sets it only when the warp can
issue in the current cycle (CTA dispatch, the completion of its last
outstanding memory request, or the wake the SM applies when a compute
run or a store ends), and issue clears it.  ``outstanding`` counts the
requests of a load still in flight.  ``age`` is the global dispatch
sequence number the GTO scheduler uses for its oldest-first tiebreak.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.gpu.isa import WarpOp


class Warp:
    __slots__ = (
        "gid",
        "cta_slot",
        "age",
        "_trace",
        "current_op",
        "outstanding",
        "done",
        "ready",
        "push_count",
        "insns_issued",
        "thread_insns",
        "sm",         # owning SM (set at CTA dispatch)
        "scheduler",  # owning scheduler slot (set at CTA dispatch)
    )

    def __init__(self, gid: int, cta_slot: int, age: int, trace: Iterator[WarpOp]):
        self.gid = gid
        self.cta_slot = cta_slot
        self.age = age
        self._trace = trace
        self.current_op: Optional[WarpOp] = next(trace, None)
        self.outstanding = 0
        self.done = self.current_op is None
        self.ready = False  # may issue this cycle; set and cleared by the scheduler
        self.push_count = 0  # invalidates stale ready-heap entries
        self.insns_issued = 0
        self.thread_insns = 0
        self.sm = None
        self.scheduler = None

    def peek(self) -> Optional[WarpOp]:
        return self.current_op

    def advance(self) -> None:
        """Move past the current op (called by the SM at issue)."""
        if self.done:
            raise RuntimeError(f"advance on finished warp {self.gid}")
        op = next(self._trace, None)
        self.current_op = op
        if op is None:
            self.done = True

    def begin_memory_wait(self, num_requests: int) -> None:
        if num_requests < 1:
            raise ValueError("memory wait needs at least one request")
        self.outstanding = num_requests

    def complete_request(self) -> bool:
        """One memory request finished; True when it was the last."""
        if self.outstanding <= 0:
            raise RuntimeError(f"spurious completion for warp {self.gid}")
        self.outstanding -= 1
        return self.outstanding == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "done"
            if self.done
            else f"out={self.outstanding} ready={self.ready}"
        )
        return f"<Warp {self.gid} age={self.age} {state}>"
