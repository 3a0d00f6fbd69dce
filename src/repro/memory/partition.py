"""Memory partition: one L2 slice plus one DRAM channel.

Addresses interleave across partitions at line granularity
(``block_addr % num_partitions``), matching GPGPU-Sim's default
address mapping for the paper's 12-partition configuration.

Timing: the slice accepts one access per ``l2_service_interval`` cycles
(tag/array bandwidth) and its response port serialises one 128-byte
packet per ``response_interval`` cycles (a 32 B/cycle crossbar link).
Read flow: L2 probe on arrival; hits respond after the L2 latency;
misses ride the DRAM channel and fill the slice on return, waking every
merged fetch.  Writes are write-through to DRAM (the L1D is
write-through, so partition writes carry store traffic only).

These service intervals are what make L1D *miss volume* expensive even
when the L2 absorbs it — the queueing that bypass-heavy policies trade
against extra hits, as the paper's Section 6.4 discusses.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.cache.l1d import FetchRequest
from repro.cache.l2 import L2Cache
from repro.cache.tagarray import CacheGeometry
from repro.memory.dram import DramChannel


def partition_for(block_addr: int, num_partitions: int) -> int:
    """Line-interleaved partition mapping."""
    return block_addr % num_partitions


class MemoryPartition:
    """One of the chip's memory partitions."""

    def __init__(
        self,
        partition_id: int,
        l2_geometry: CacheGeometry,
        dram: DramChannel,
        schedule: Callable[[int, Callable[[Any], None], Any], None],
        respond: Callable[[FetchRequest], None],
        l2_latency: int,
        l2_service_interval: int = 2,
        response_interval: int = 4,
    ):
        self.partition_id = partition_id
        self.l2 = L2Cache(l2_geometry)
        self.dram = dram
        self.schedule = schedule
        self.respond = respond
        self.l2_latency = l2_latency
        self.l2_service_interval = l2_service_interval
        self.response_interval = response_interval
        self._l2_next_free = 0
        self._resp_next_free = 0
        self.l2_queue_delay = 0
        self.resp_queue_delay = 0

    # ------------------------------------------------------------------

    def _l2_slot(self, now: int) -> int:
        """Admission time of the next L2 access (slice bandwidth)."""
        start = max(now, self._l2_next_free)
        self._l2_next_free = start + self.l2_service_interval
        self.l2_queue_delay += start - now
        return start

    def _respond_later(self, fetch: FetchRequest, ready: int, now: int) -> None:
        """Serialise the response onto the return link."""
        start = max(ready, self._resp_next_free)
        self._resp_next_free = start + self.response_interval
        self.resp_queue_delay += start - ready
        self.schedule(start - now, self.respond, fetch)

    def receive(self, fetch: FetchRequest, now: int) -> None:
        """A request delivered by the interconnect."""
        start = self._l2_slot(now)
        if fetch.is_write:
            self.l2.write(fetch.block_addr)
            self.dram.schedule_write(start + self.l2_latency)
            return
        outcome = self.l2.read(fetch.block_addr, waiter=fetch)
        if outcome == "hit":
            self._respond_later(fetch, start + self.l2_latency, now)
        elif outcome == "miss":
            ready = self.dram.schedule_read(start + self.l2_latency)
            self.schedule(ready - now, self._dram_return, (fetch.block_addr, ready))
        # "merged": the fetch waits on the in-flight DRAM read and will be
        # released by _dram_return via L2Cache.fill.

    def _dram_return(self, read: Tuple[int, int]) -> None:
        """DRAM data for ``(block_addr, ready cycle)`` reached the slice."""
        block_addr, now = read
        waiters: List[Optional[FetchRequest]] = self.l2.fill(block_addr)
        for fetch in waiters:
            if fetch is not None:
                self._respond_later(fetch, now, now)
