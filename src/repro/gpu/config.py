"""GPU configuration (paper Table 1).

Defaults match the Tesla M2090 / Fermi setup the paper simulates with
GPGPU-Sim.  Latencies are expressed in core-clock cycles; the paper's
650 MHz core / 650 MHz interconnect / 924 MHz memory clocks are folded
into the defaults below (DRAM service interval derives from the
177.4 GB/s aggregate bandwidth: 177.4e9 / 12 partitions / 128 B per line
≈ 115 M lines/s ≈ one line every 5.6 core cycles at 650 MHz).

``GPUConfig.scaled()`` produces the wall-clock-friendly variant the
benchmark harness uses (fewer SMs, proportionally fewer partitions);
per-SM behaviour is unchanged because L1Ds are private and CTAs are
distributed round-robin (documented in EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Tuple

from repro.cache.tagarray import CacheGeometry


@dataclass(frozen=True)
class L1DConfig:
    """Geometry and resource limits of each SM's L1 data cache."""

    num_sets: int = 32
    assoc: int = 4
    line_size: int = 128
    index_fn: str = "hash"
    mshr_entries: int = 32
    mshr_merge: int = 8
    miss_queue_depth: int = 8
    hit_latency: int = 28  # Fermi L1 load-to-use is ~18-30 core cycles
    #: Non-blocking L1D: hit-under-miss / miss-under-miss with
    #: word-granular MSHR coalescing.  Part of the cache *semantics*
    #: (unlike ``--engine``), so it enters store keys when enabled; off
    #: keeps the blocking-retry model bit-identical to the baselines.
    non_blocking: bool = False

    @property
    def size_bytes(self) -> int:
        return self.num_sets * self.assoc * self.line_size

    def geometry(self) -> CacheGeometry:
        return CacheGeometry(self.num_sets, self.assoc, self.line_size, self.index_fn)

    def with_assoc(self, assoc: int) -> "L1DConfig":
        """Paper's capacity sweep keeps sets fixed and scales ways
        (16 KB/4-way -> 32 KB/8-way -> 64 KB/16-way, Section 3.2)."""
        return dataclasses.replace(self, assoc=assoc)


@dataclass(frozen=True)
class GPUConfig:
    """Table 1 of the paper, plus simulator-level latency parameters."""

    num_sms: int = 16
    warp_size: int = 32
    max_warps_per_sm: int = 48
    schedulers_per_sm: int = 2
    scheduler: str = "gto"
    max_ctas_per_sm: int = 8
    registers_per_sm: int = 32768
    shared_mem_per_sm: int = 48 * 1024

    l1d: L1DConfig = field(default_factory=L1DConfig)

    # memory system
    num_partitions: int = 12
    l2_sets: int = 64
    l2_assoc: int = 8
    icnt_latency: int = 16        # one-way L1<->L2 crossbar latency
    l2_latency: int = 32          # L2 slice access latency
    l2_service_interval: int = 2  # cycles between accesses one slice can accept
    icnt_response_interval: int = 4  # cycles per 128B response packet per
    # partition (a 32 B/cycle crossbar link: 4-5 flits per data packet)
    dram_latency: int = 160       # DRAM access latency (GDDR5-class)
    dram_service_interval: int = 6  # core cycles per 128B line per partition

    # LD/ST unit
    ldst_queue_depth: int = 4     # warp memory ops buffered per SM

    # clocks, recorded for completeness / reports (all latencies are
    # already expressed in core cycles)
    core_clock_mhz: int = 650
    icnt_clock_mhz: int = 650
    mem_clock_mhz: int = 924
    mem_bandwidth_gbps: float = 177.4
    dram_chip: str = "32-bit bus/partition, 6 banks/partition, GDDR5 timing"

    def __post_init__(self) -> None:
        if self.num_sms < 1:
            raise ValueError("need at least one SM")
        if self.num_partitions < 1:
            raise ValueError("need at least one memory partition")
        if self.schedulers_per_sm < 1:
            raise ValueError("need at least one warp scheduler")
        if self.scheduler not in ("gto", "lrr"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")

    # -- derived -----------------------------------------------------------

    @property
    def l2_size_bytes(self) -> int:
        return self.num_partitions * self.l2_sets * self.l2_assoc * self.l1d.line_size

    def l2_geometry(self) -> CacheGeometry:
        return CacheGeometry(self.l2_sets, self.l2_assoc, self.l1d.line_size, "linear")

    # -- variants ------------------------------------------------------------

    def with_l1d(self, **kwargs) -> "GPUConfig":
        """Replace L1D parameters (e.g. ``with_l1d(assoc=8)`` = 32 KB)."""
        return dataclasses.replace(self, l1d=dataclasses.replace(self.l1d, **kwargs))

    def with_l1d_size_kb(self, kb: int) -> "GPUConfig":
        """The paper's three capacities: 16, 32, 64 KB (4/8/16-way)."""
        assoc_by_kb = {16: 4, 32: 8, 64: 16}
        if kb not in assoc_by_kb:
            raise ValueError(f"paper evaluates 16/32/64 KB L1Ds, not {kb} KB")
        return self.with_l1d(assoc=assoc_by_kb[kb])

    def scaled(self, num_sms: int = 4) -> "GPUConfig":
        """Wall-clock-friendly configuration for the bench harness: fewer
        SMs and proportionally fewer memory partitions so per-SM memory
        bandwidth matches the full machine."""
        partitions = max(1, round(self.num_partitions * num_sms / self.num_sms))
        return dataclasses.replace(
            self, num_sms=num_sms, num_partitions=partitions
        )

    def table1_rows(self):
        """(parameter, value) rows mirroring the paper's Table 1."""
        l1 = self.l1d
        return [
            ("Number of Cores", str(self.num_sms)),
            ("Warp Size", str(self.warp_size)),
            ("Max # of warps per core", str(self.max_warps_per_sm)),
            (
                "Warp schedulers per core",
                f"{self.schedulers_per_sm}, {self.scheduler.upper()} scheduling policy",
            ),
            ("# of registers per core", str(self.registers_per_sm)),
            ("Shared Memory", f"{self.shared_mem_per_sm // 1024}KB"),
            (
                "L1D cache",
                f"{l1.size_bytes // 1024}KB, {l1.num_sets}sets, "
                f"{l1.assoc}-ways, {'Hash' if l1.index_fn == 'hash' else 'Linear'} index",
            ),
            (
                "Core/ICNT/Memory Clock",
                f"{self.core_clock_mhz}MHz/{self.icnt_clock_mhz}MHz/{self.mem_clock_mhz}MHz",
            ),
            ("# of memory partition", str(self.num_partitions)),
            (
                "L2 cache",
                f"{self.l2_size_bytes // 1024}KB, {self.l2_sets}sets, "
                f"{self.l2_assoc}-ways, Linear index",
            ),
            ("DRAM Chip Model", self.dram_chip),
            ("Memory Bandwidth", f"{self.mem_bandwidth_gbps} GB/s"),
        ]


def resolve_scheme(scheme: str, config: GPUConfig) -> Tuple[str, GPUConfig]:
    """The policy and machine one scheme runs on.

    ``32kb`` and ``64kb`` are the baseline policy on a larger L1D (the
    capacity bars of Figs. 10 and 13); every other scheme names its
    policy and keeps ``config``.
    """
    if scheme in ("32kb", "64kb"):
        return "baseline", config.with_l1d_size_kb(int(scheme[:-2]))
    return scheme, config


#: The exact Table 1 machine.
BASELINE_CONFIG = GPUConfig()

#: Harness default: same per-SM machine, four SMs (see EXPERIMENTS.md).
SCALED_CONFIG = BASELINE_CONFIG.scaled(4)
