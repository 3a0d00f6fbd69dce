"""Bench: the whole ablation grid in one batch pass.

The batch engine's contract is "the 17-cell ablation grid for the
wall-clock of a couple of fastsim cells".  The unit of comparison is a
*sweep cell*: read + decode + replay of one recorded trace, exactly
what ``repro sweep --replay`` and ``repro trace replay`` pay per cell.
Solo fastsim pays the scalar per-record decode for every cell; the
batch engine decodes once (vectorized), partitions once, and advances
every lane through the shared stream.  Lanes that agree on everything
a kernel reads inside a sampling window (baseline vs stall_bypass,
replay-inert knobs, Nasc and PD width) share one kernel pass per SM;
a Nasc or PD-width lane forks off at the first window barrier that
leaves its PDs apart from the pass's.

This bench replays the full 17-cell grid both ways on BFS (the
workload's hit/miss mix is representative; see BENCH_trace_replay),
asserts every lane bit-identical to its solo fast replay, asserts the
wall-clock budget, and writes ``benchmarks/BENCH_batchsim.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import bench_once

from repro.analysis import ascii_table
from repro.batchsim.engine import replay_batch
from repro.experiments.runner import harness_config
from repro.trace.format import TraceReader
from repro.trace.record import record_workload
from repro.trace.replay import replay_trace
from repro.workloads import make_workload

APP = "BFS"
NUM_SMS = 2
SCALE = 1.0

#: The full differential ablation grid (tests/batchsim mirrors this).
ABLATIONS = [
    ("baseline", {}),
    ("stall_bypass", {}),
    ("global_protection", {}),
    ("global_protection", {"nasc": 0}),
    ("global_protection", {"bypass_enabled": False}),
    ("global_protection", {"vta_assoc": 2}),
    ("global_protection", {"pd_bits": 2}),
    ("dlp", {}),
    ("dlp", {"pd_bits": 2}),
    ("dlp", {"pd_bits": 6}),
    ("dlp", {"vta_assoc": 2}),
    ("dlp", {"vta_assoc": 8}),
    ("dlp", {"nasc": 0}),
    ("dlp", {"nasc": 3}),
    ("dlp", {"bypass_enabled": False}),
    ("dlp", {"sample_limit": 50}),
    ("dlp", {"insn_sample_limit": 500}),
]

#: Acceptance: the whole grid must cost at most this many single-cell
#: fastsim wall-clocks.
MAX_GRID_RATIO = 3.0

BENCH_JSON = Path(__file__).parent / "BENCH_batchsim.json"


def collect(trace_path):
    config = harness_config(NUM_SMS)
    reader = TraceReader(trace_path)
    # warm both code paths (bytecode, kernel codegen, numpy imports)
    replay_trace(TraceReader(trace_path), "dlp", config, engine="fast")
    replay_batch(TraceReader(trace_path), ABLATIONS[:2], config)

    def timed(fn, repeats=3):
        """Median-of-N wall clock (single-shot replay timings jitter)."""
        times, value = [], None
        for _ in range(repeats):
            t0 = time.perf_counter()
            value = fn()
            times.append(time.perf_counter() - t0)
        times.sort()
        return times[len(times) // 2], value

    cell_s, _ = timed(lambda: replay_trace(
        TraceReader(trace_path), "dlp", config, engine="fast"))
    batch_s, batched = timed(lambda: replay_batch(
        TraceReader(trace_path), ABLATIONS, config))

    t0 = time.perf_counter()
    serial = [
        replay_trace(TraceReader(trace_path), scheme, config,
                     engine="fast", **kwargs)
        for scheme, kwargs in ABLATIONS
    ]
    serial_s = time.perf_counter() - t0

    identical = all(
        a.to_dict() == b.to_dict() for a, b in zip(batched, serial)
    )
    return {
        "records": reader.total_records,
        "cells": len(ABLATIONS),
        "fast_cell_s": round(cell_s, 4),
        "batch_grid_s": round(batch_s, 4),
        "serial_grid_s": round(serial_s, 4),
        "grid_ratio": round(batch_s / cell_s, 2),
        "grid_speedup": round(serial_s / batch_s, 2),
        "identical": identical,
    }


def test_batchsim_grid_economics(benchmark, show, tmp_path):
    trace_path = tmp_path / "bfs.rptr"
    record_workload(make_workload(APP, SCALE),
                    harness_config(NUM_SMS), trace_path)
    data = bench_once(benchmark, lambda: collect(trace_path))
    payload = {
        "app": APP,
        "num_sms": NUM_SMS,
        "scale": SCALE,
        "max_grid_ratio": MAX_GRID_RATIO,
        **data,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    show(ascii_table(
        ["metric", "value"],
        [
            ("trace records", str(data["records"])),
            ("grid cells", str(data["cells"])),
            ("one fastsim cell", f"{data['fast_cell_s']:.3f} s"),
            ("batch grid (17 lanes)", f"{data['batch_grid_s']:.3f} s"),
            ("serial grid (17 cells)", f"{data['serial_grid_s']:.3f} s"),
            ("grid / cell ratio", f"{data['grid_ratio']:.2f}x "
                                  f"(budget {MAX_GRID_RATIO:.0f}x)"),
            ("batch vs serial", f"{data['grid_speedup']:.2f}x"),
            ("bit-identical", str(data["identical"])),
        ],
        title=f"17-cell ablation grid, one pass ({APP} scale {SCALE})",
    ))
    assert data["identical"], "batch lanes diverged from solo fastsim"
    assert data["grid_ratio"] <= MAX_GRID_RATIO, (
        f"17-cell grid cost {data['grid_ratio']:.2f}x one fastsim cell, "
        f"budget is {MAX_GRID_RATIO:.0f}x"
    )
