"""Trace capture: persist a workload's coalesced L1D access stream.

Two capture points exist:

* :func:`record_workload` — the functional path.  Replays the workload
  through :func:`repro.experiments.cachesim.interleaved_accesses` (the
  same GPU-like interleaving Figs. 3/4/7 characterise) and writes every
  coalesced request.  This is the canonical capture: replaying the
  resulting trace through a policy is bit-identical to driving that
  policy from the live stream.
* :class:`TimingTapRecorder` — hooks the LD/ST path of a running
  :class:`~repro.gpu.simulator.GpuSimulator` via the L1D access tap, so
  a *timing* run's stream (which reflects scheduler and MSHR pressure)
  can be captured as well.  Timing-captured traces are scheme-coloured:
  replaying one is only meaningful against the scheme that produced it
  (see EXPERIMENTS.md, "Trace-driven replay").

Module-level :data:`RECORDER_STATS` counts captures so tests and the
replay sweep can assert "recorded exactly once" on counters instead of
wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.experiments.cachesim import interleaved_accesses
from repro.experiments.store import stream_fingerprint, trace_key
from repro.gpu.config import GPUConfig
from repro.trace.format import TraceRecord, TraceWriter
from repro.workloads import make_workload
from repro.workloads.base import Workload


@dataclass
class RecorderStats:
    """How many streams were actually generated (vs. found on disk)."""

    captures: int = 0
    records: int = 0

    def reset(self) -> None:
        self.captures = 0
        self.records = 0


#: Process-wide capture counters (reset freely in tests).
RECORDER_STATS = RecorderStats()


def stream_records(
    workload: Workload, config: GPUConfig
) -> Iterator[TraceRecord]:
    """The workload's access stream as :class:`TraceRecord` values."""
    for sm, block, pc, is_write, warp in interleaved_accesses(workload, config):
        yield TraceRecord(sm, block, pc, is_write, warp)


def capture_records(
    workload: Workload, config: GPUConfig
) -> List[TraceRecord]:
    """Materialise the stream in memory (small workloads / tests)."""
    records = list(stream_records(workload, config))
    RECORDER_STATS.captures += 1
    RECORDER_STATS.records += len(records)
    return records


def workload_meta(
    workload: Workload, config: GPUConfig
) -> Dict[str, Any]:
    """Header metadata identifying a registry workload's capture, rich
    enough for ``repro trace replay --verify`` to regenerate the stream."""
    return {
        "source": "registry",
        "abbr": workload.meta.abbr,
        "scale": workload.scale,
        "seed": workload.seed,
        "trace_key": trace_key(
            workload.meta.abbr, config, scale=workload.scale, seed=workload.seed
        ),
    }


def record_workload(
    workload: Workload,
    config: Optional[GPUConfig] = None,
    path=None,
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Capture ``workload``'s functional access stream to ``path``."""
    config = config or GPUConfig()
    if path is None:
        raise ValueError("record_workload needs an output path")
    header_meta = workload_meta(workload, config)
    header_meta.update(meta or {})
    writer = TraceWriter(
        path,
        num_sms=config.num_sms,
        line_size=config.l1d.line_size,
        meta=header_meta,
        stream=stream_fingerprint(
            workload.meta.abbr, config,
            scale=workload.scale, seed=workload.seed,
        ),
    )
    count = 0
    with writer:
        for rec in stream_records(workload, config):
            writer.append(*rec)
            count += 1
    RECORDER_STATS.captures += 1
    RECORDER_STATS.records += count
    return Path(path)


def record_app(
    abbr: str,
    path,
    config: Optional[GPUConfig] = None,
    scale: float = 1.0,
    seed: int = 0,
) -> Path:
    """Record a Table 2 application by abbreviation (CLI entry point)."""
    config = config or GPUConfig()
    workload = make_workload(abbr, scale, seed=seed)
    return record_workload(workload, config, path)


# ----------------------------------------------------------------------
# timing-path capture (LD/ST tap)
# ----------------------------------------------------------------------

class TimingTapRecorder:
    """Capture the L1D-visible stream of a timing simulation.

    Install *before* :meth:`GpuSimulator.run`::

        sim = GpuSimulator(kernels, config, policy_factory=...)
        recorder = TimingTapRecorder(sim)
        sim.run()
        recorder.write("run.rptr", meta={"abbr": "BFS"})

    The tap fires once per *completed* access (stalled retries collapse
    to their completion), which is exactly the stream the cache counters
    are defined over.
    """

    def __init__(self, sim) -> None:
        self.config: GPUConfig = sim.config
        self.records: List[List[TraceRecord]] = [
            [] for _ in range(sim.config.num_sms)
        ]
        sim.attach_l1d_tap(self._on_access)

    def _on_access(self, access, outcome) -> None:
        self.records[access.sm_id].append(
            TraceRecord(
                access.sm_id,
                access.block_addr,
                access.pc,
                access.is_write,
                max(access.warp_id, 0),  # store-path accesses carry -1
            )
        )

    @property
    def total_records(self) -> int:
        return sum(len(r) for r in self.records)

    def write(self, path, meta: Optional[Dict[str, Any]] = None) -> Path:
        header_meta = {"source": "timing_tap"}
        header_meta.update(meta or {})
        writer = TraceWriter(
            path,
            num_sms=self.config.num_sms,
            line_size=self.config.l1d.line_size,
            meta=header_meta,
        )
        with writer:
            for per_sm in self.records:
                writer.extend(per_sm)
        RECORDER_STATS.captures += 1
        RECORDER_STATS.records += self.total_records
        return Path(path)
