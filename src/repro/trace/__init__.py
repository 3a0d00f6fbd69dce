"""repro.trace — memory-trace capture & replay.

The trace-driven evaluation layer: capture a workload's coalesced L1D
access stream once (binary on-disk format, per-SM streams, varint+gzip),
then replay it through any cache-management scheme without regenerating
the workload or re-running the GPU front end.

* :mod:`repro.trace.format` — :class:`TraceWriter` / :class:`TraceReader`
  and the on-disk layout;
* :mod:`repro.trace.record` — capture from the functional interleaving
  or from a timing simulation's LD/ST tap;
* :mod:`repro.trace.replay` — the policy replay engine;
* :mod:`repro.trace.adapters` — import external text/CSV traces and
  register them as first-class workloads;
* :mod:`repro.trace.sweep` — record-once / replay-per-scheme sweeps.

Quick start::

    from repro.trace import record_app, replay_trace

    record_app("BFS", "bfs.rptr", scale=0.5)
    for scheme in ("baseline", "stall_bypass", "global_protection", "dlp"):
        print(scheme, replay_trace("bfs.rptr", scheme).l1d.hit_rate)
"""

from repro.trace.format import (
    FORMAT_VERSION,
    TraceFormatError,
    TraceReader,
    TraceRecord,
    TraceWriter,
    write_trace,
)
from repro.trace.record import (
    RECORDER_STATS,
    TimingTapRecorder,
    capture_records,
    record_app,
    record_workload,
    stream_records,
)
from repro.trace.replay import (
    ReplayEngine,
    ReplayStallError,
    replay_records,
    replay_trace,
    replay_workload,
)
from repro.trace.adapters import (
    TraceWorkload,
    import_text_trace,
    iter_text_records,
    make_trace_workload_class,
)
from repro.trace.sweep import ReplaySweepExecutor, ReplaySweepStats, TraceStore

__all__ = [
    "FORMAT_VERSION",
    "TraceFormatError",
    "TraceReader",
    "TraceRecord",
    "TraceWriter",
    "write_trace",
    "RECORDER_STATS",
    "TimingTapRecorder",
    "capture_records",
    "record_app",
    "record_workload",
    "stream_records",
    "ReplayEngine",
    "ReplayStallError",
    "replay_records",
    "replay_trace",
    "replay_workload",
    "TraceWorkload",
    "import_text_trace",
    "iter_text_records",
    "make_trace_workload_class",
    "ReplaySweepExecutor",
    "ReplaySweepStats",
    "TraceStore",
]
