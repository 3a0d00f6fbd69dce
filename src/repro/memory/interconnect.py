"""Interconnection network between the SMs and the memory partitions.

Modelled as a crossbar with a fixed one-way latency and per-direction
byte accounting — the quantity Figure 13 of the paper reports.  Packet
sizes follow GPGPU-Sim's convention: an 8-byte control header per
packet, plus the 128-byte line payload on read responses and write
requests.

Bandwidth contention is modelled at the DRAM channels (the bottleneck in
the paper's configuration), not in the crossbar itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

CONTROL_BYTES = 8
LINE_BYTES = 128


@dataclass
class InterconnectStats:
    request_packets: int = 0
    response_packets: int = 0
    bytes_to_mem: int = 0
    bytes_from_mem: int = 0

    @property
    def total_bytes(self) -> int:
        """Total traffic both directions (Fig. 13's metric)."""
        return self.bytes_to_mem + self.bytes_from_mem

    def as_dict(self):
        return {
            "request_packets": self.request_packets,
            "response_packets": self.response_packets,
            "bytes_to_mem": self.bytes_to_mem,
            "bytes_from_mem": self.bytes_from_mem,
            "total_bytes": self.total_bytes,
        }


class Interconnect:
    """Fixed-latency crossbar with per-source injection serialisation and
    traffic accounting.

    ``schedule(delay, fn, arg)`` is the simulator's event scheduler;
    ``deliver(arg)`` fires after ``latency`` cycles plus any
    injection-port queueing.  Each SM's injection port accepts one packet per cycle —
    this throttles the dedicated bypass path of Fig. 1/8 the same way the
    miss queue throttles ordinary fetches, so bypass-heavy policies still
    pay for their request volume.
    """

    def __init__(
        self,
        schedule: Callable[[int, Callable[[Any], None], Any], None],
        latency: int,
        clock: Callable[[], int] | None = None,
        injection_interval: int = 1,
    ):
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.schedule = schedule
        self.latency = latency
        self.clock = clock or (lambda: 0)
        self.injection_interval = injection_interval
        self.stats = InterconnectStats()
        self._next_free: dict = {}

    def _injection_delay(self, src: int) -> int:
        now = self.clock()
        start = max(now, self._next_free.get(src, 0))
        self._next_free[src] = start + self.injection_interval
        return start - now

    def send_request(
        self, src: int, is_write: bool, deliver: Callable[[Any], None], arg: Any
    ) -> None:
        """SM -> memory partition direction."""
        self.stats.request_packets += 1
        self.stats.bytes_to_mem += CONTROL_BYTES + (LINE_BYTES if is_write else 0)
        self.schedule(self._injection_delay(src) + self.latency, deliver, arg)

    def send_response(self, deliver: Callable[[Any], None], arg: Any) -> None:
        """Memory partition -> SM direction (read data).  Return-path
        serialisation happens at the partition's response port."""
        self.stats.response_packets += 1
        self.stats.bytes_from_mem += CONTROL_BYTES + LINE_BYTES
        self.schedule(self.latency, deliver, arg)
