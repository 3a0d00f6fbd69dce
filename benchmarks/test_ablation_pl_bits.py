"""Ablation: Protected Life field width (the paper uses 4 bits).

A wider PL field lets protection span longer reuse distances at extra
per-line storage; a narrower one saturates too early to protect the
9~64 range at all.

This is a timing result.  In blocking replay, 2-bit PL on the 4-way
L1D is LRU by construction: a PL of at most 3 has expired before its
line becomes the LRU way.  Here 2 bits lose to the baseline for another
reason: a set whose ways are all RESERVED by fills in flight makes a
protected miss bypass where the baseline stalls (EXPERIMENTS.md, under
the ablation table).
"""

from conftest import bench_once

from repro.analysis import ascii_table
from repro.core.overhead import compute_overhead
from repro.experiments.runner import harness_config, run_workload

PL_BITS = (2, 3, 4, 6)
APP = "SR2K"


def collect():
    config = harness_config()
    base = run_workload(APP, "baseline", config).cycles
    rows = []
    for bits in PL_BITS:
        r = run_workload(APP, "dlp", config, pd_bits=bits)
        cost = compute_overhead(pl_bits=bits, pd_bits=bits).total_extra_bytes
        rows.append((str(bits), f"{base / r.cycles:.3f}",
                     f"{r.l1d.hit_rate:.3f}", f"{cost} B"))
    return rows


def test_ablation_pl_bits(benchmark, show):
    rows = bench_once(benchmark, collect)
    show(ascii_table(
        ["PL bits", "Speedup", "L1D hit rate", "DLP storage"],
        rows,
        title=f"Ablation: Protected Life width on {APP}",
    ))
    by_bits = {int(r[0]): float(r[1]) for r in rows}
    # 4 bits must capture most of the achievable benefit
    best = max(by_bits.values())
    assert by_bits[4] >= 0.9 * best
    assert by_bits[4] > 1.0
