"""Section 3 golden: the read-stream reuse structure behind Figs. 3, 4 and 7.

Every app's stream (2 SMs, scale 0.2, seed 0) is profiled for its
reuse-distance counts (Fig. 3, and Fig. 7's per-PC rows for BFS) and
swept over the 16/32/64 KB L1D for Fig. 4's accesses, compulsory
misses, reuses and reuse misses.  ``tests/golden/reuse.json`` pins
every count, so a change to the reuse walker that moves any of them
shows up as a readable diff.  For an intended change, regenerate with::

    python -m pytest tests/golden/test_golden_reuse.py -q --update-golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.cachesim import capacity_sweep, profile_reuse
from repro.experiments.runner import harness_config
from repro.workloads import ALL_APPS, make_workload

GOLDEN_PATH = Path(__file__).parent / "reuse.json"
NUM_SMS = 2
SCALE = 0.2
SIZES_KB = (16, 32, 64)


def reuse_snapshot() -> dict:
    config = harness_config(NUM_SMS)
    fig3, fig4 = {}, {}
    fig7: dict = {}
    for app in ALL_APPS:
        profiler = profile_reuse(make_workload(app, SCALE), config)
        fig3[app] = list(profiler.overall.counts)
        if app == "BFS":
            fig7 = {f"{pc:#x}": list(hist.counts)
                    for pc, hist in sorted(profiler.per_pc.items())}
        sweep = capacity_sweep(make_workload(app, SCALE), SIZES_KB, config)
        fig4[app] = {str(kb): sweep[kb] for kb in SIZES_KB}
    return {"fig3": fig3, "fig4": fig4, "fig7": fig7}


@pytest.fixture(scope="module")
def snapshot() -> dict:
    return reuse_snapshot()


def test_golden_reuse(snapshot, update_golden):
    if update_golden:
        GOLDEN_PATH.write_text(
            json.dumps(snapshot, indent=1, sort_keys=True) + "\n"
        )
        return
    golden = json.loads(GOLDEN_PATH.read_text())
    for section in ("fig3", "fig7"):
        assert snapshot[section] == golden[section], section
    for app in ALL_APPS:
        assert snapshot["fig4"][app] == golden["fig4"][app], app


def test_snapshot_reaches_every_capacity(snapshot):
    """Not vacuous: some app keeps losing reuses at 64 KB, and some
    app's reuse misses fall at each step up in capacity."""
    fig4 = snapshot["fig4"]
    assert any(row["64"]["reuse_misses"] for row in fig4.values())
    assert any(row["16"]["reuse_misses"] > row["32"]["reuse_misses"]
               > row["64"]["reuse_misses"] for row in fig4.values())
