"""Host-speed calibration for the gated host-time metrics.

A shared host lends its cores to other tenants: on the 2-core virtual
machine this benchmark was tuned on, speed drifts by 20-60% over
minutes.  To keep that drift out of the gated metrics, a run times a
fixed kernel between its measured intervals (each set-up, each round,
each timing cell), and rescales each interval by ``REFERENCE_S`` over
the mean of the two kernel runs on each side of it: an estimate of how
long it would have taken on the host at its reference speed.  The raw
times stay in the report and the run record.

The kernel is frozen here, in the benchmark, so no change to the program
can move it.  It imitates the timing simulator's hot path in miniature:
lazily generated per-warp op streams, a per-cycle loop over units, an
event heap, ``np.unique`` coalescing of 32-lane addresses, and a
set-associative LRU tag array.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List, Optional

import numpy as np

#: The kernel's duration on the reference host (2-core Xeon, Python
#: 3.11, numpy 2.4) at its usual speed.
REFERENCE_S = 0.35


class _Unit:
    __slots__ = ("ops", "ready", "done")

    def __init__(self, ops) -> None:
        self.ops = ops
        self.ready = 0
        self.done = False


def _ops(uid: int, count: int):
    x = uid * 2654435761 & 0xFFFFFFFF
    for _ in range(count):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        if x & 3:
            yield 0, (x >> 3) & 7
        else:
            yield 1, np.arange(32, dtype=np.int64) * ((x >> 5) & 3) + (x >> 9)


def kernel(units: int = 48, ops: int = 1200) -> int:
    """The fixed workload; returns its hit count so nothing is elided."""
    heap: list = []
    seq = 0
    tags = [[-1] * 4 for _ in range(64)]
    lru = [[0] * 4 for _ in range(64)]
    live = [_Unit(_ops(u, ops)) for u in range(units)]
    now = clock = hits = 0
    while live:
        while heap and heap[0][0] <= now:
            _, _, unit = heapq.heappop(heap)
            unit.ready = now
        progressed = False
        for unit in live:
            if unit.ready > now:
                continue
            op = next(unit.ops, None)
            if op is None:
                unit.done = True
                continue
            progressed = True
            if op[0] == 0:
                unit.ready = now + op[1] + 1
                continue
            lines = op[1] >> 7
            _, first = np.unique(lines, return_index=True)
            for block in [int(lines[i]) for i in np.sort(first)]:
                row, stamps = tags[block & 63], lru[block & 63]
                clock += 1
                if block in row:
                    hits += 1
                    stamps[row.index(block)] = clock
                else:
                    way = stamps.index(min(stamps))
                    row[way] = block
                    stamps[way] = clock
            seq += 1
            heapq.heappush(heap, (now + 20, seq, unit))
            unit.ready = now + 10 ** 9
        live = [u for u in live if not u.done]
        now = now + 1 if progressed or not heap else heap[0][0]
    return hits


def measure() -> float:
    """Seconds one kernel run takes right now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class HostClock:
    """Calibration slices between measured intervals.

    Call :meth:`mark` after each measured interval (and once before the
    first); it takes a slice and returns its index.  Once the run is
    over, :meth:`factor` rescales the interval that ended at a slice by
    the mean of the two slices on each side of it: neighbours, not a
    run-wide mean, so that a drift in the middle of a run lands on the
    intervals it slowed, and four of them, because one slice alone is
    noisy."""

    def __init__(self) -> None:
        self.slices: List[float] = []

    def mark(self) -> int:
        self.slices.append(measure())
        return len(self.slices) - 1

    def factor(self, after: Optional[int]) -> float:
        if after is None:
            return 1.0
        window = self.slices[max(0, after - 2):after + 2]
        return REFERENCE_S / statistics.fmean(window)
