"""Timing-simulator golden: pinned end-of-run counters for seven cells.

The L1D goldens drive the cache alone; nothing else pins what the
timing simulator (warp issue, coalescing, the LD/ST unit's blocking
retry, interconnect/L2/DRAM) produces.  These cells run the whole
simulator at 2 SMs and scale 0.1, truncated at ``MAX_CYCLES``, and
compare ``SimResult.to_dict()`` plus the summed LD/ST unit counters
with ``tests/golden/timing.json`` on both L1D engines.

Each cell exercises one retry path of the LD/ST unit:

* KM ``baseline``: MSHR-full and merge-full retries;
* KM ``dlp`` with bypass disabled: no-reservable-line retries, whose
  set query decays Protected Life on every retry;
* KM ``dlp`` non-blocking: under-miss probing past a stalled head;
* SS ``stall_bypass``: every stall reason turns into a bypass;
* HS ``global_protection``: write-through stores and global PD
  adaptation, no stalls;
* KM ``baseline`` and SS ``dlp`` under the LRR warp scheduler: the
  other scheduler's pick order, with full-queue issue rejects.

Every other cell runs GTO, the Table 1 scheduler.

KM, SS and HS draw no random numbers, so the snapshot does not depend
on numpy's Generator streams.  A semantic change shows up here as a
readable diff; if it is intentional, regenerate (and bump
``repro.experiments.store.SIM_VERSION``) with::

    python -m pytest tests/golden -q --update-golden
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.experiments.runner import build_simulator, harness_config

GOLDEN_PATH = Path(__file__).parent / "timing.json"
ENGINES = ("reference", "fast")
SCALE = 0.1
NUM_SMS = 2
MAX_CYCLES = 20_000

#: label -> (app, scheme, policy kwargs, non-blocking L1D, warp scheduler)
CELLS = {
    "KM/baseline": ("KM", "baseline", {}, False, "gto"),
    "KM/dlp-no-bypass": ("KM", "dlp", {"bypass_enabled": False}, False, "gto"),
    "KM/dlp-non-blocking": ("KM", "dlp", {}, True, "gto"),
    "SS/stall_bypass": ("SS", "stall_bypass", {}, False, "gto"),
    "HS/global_protection": ("HS", "global_protection", {}, False, "gto"),
    "KM/baseline-lrr": ("KM", "baseline", {}, False, "lrr"),
    "SS/dlp-lrr": ("SS", "dlp", {}, False, "lrr"),
}

#: Counters (dotted paths into a snapshot) that must be nonzero for a
#: cell to cover the path it is here for.
COVERS = {
    "KM/baseline": (
        "result.l1d.stalls.mshr_full",
        "result.l1d.stalls.merge_full",
        "ldst.queue_full_rejects",
    ),
    "KM/dlp-no-bypass": ("result.l1d.stalls.no_reservable_line",),
    "KM/dlp-non-blocking": (
        "result.l1d.stalls.mshr_full",
        "ldst.under_miss_issues",
    ),
    # Stall-Bypass counts the stalls it turned into bypasses.
    "SS/stall_bypass": (
        "result.policy.bypass_mshr_full",
        "result.policy.bypass_no_reservable_line",
    ),
    "HS/global_protection": (
        "result.l1d.write_misses",
        "result.policy.pd_increase",
    ),
    "KM/baseline-lrr": (
        "ldst.queue_full_rejects",
        "result.l1d.stalls.mshr_full",
    ),
    "SS/dlp-lrr": (
        "result.policy.pd_increase",
        "ldst.queue_full_rejects",
    ),
}


def run_cell(label: str, engine: str) -> dict:
    abbr, scheme, policy_kwargs, non_blocking, scheduler = CELLS[label]
    config = harness_config(NUM_SMS)
    if non_blocking:
        config = config.with_l1d(non_blocking=True)
    if scheduler != config.scheduler:
        config = dataclasses.replace(config, scheduler=scheduler)
    sim = build_simulator(
        abbr, scheme, config, scale=SCALE, max_cycles=MAX_CYCLES,
        engine=engine, **policy_kwargs,
    )
    result = sim.run()
    ldst: dict = {}
    for sm in sim.sms:
        for name, value in asdict(sm.ldst.stats).items():
            ldst[name] = ldst.get(name, 0) + value
    return {"result": result.to_dict(), "ldst": ldst}


def load_golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"missing golden snapshot {GOLDEN_PATH.name}; generate with "
        f"`python -m pytest tests/golden --update-golden`"
    )
    return json.loads(GOLDEN_PATH.read_text())


def lookup(snapshot: dict, path: str) -> int:
    value = snapshot
    for part in path.split("."):
        value = value.get(part, 0)
    return value


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("label", list(CELLS))
def test_timing_golden(label, engine, update_golden):
    snapshot = run_cell(label, engine)
    if update_golden:
        if engine != "reference":
            pytest.skip("the golden is written from the reference engine")
        golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        golden[label] = snapshot
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    assert snapshot == load_golden()[label], (
        f"{label} on {engine}: timing counters diverged from the golden "
        f"snapshot; if the change is intentional, rerun with "
        f"--update-golden and bump SIM_VERSION"
    )


@pytest.mark.parametrize("label", list(CELLS))
def test_cell_covers_its_path(label):
    snapshot = load_golden()[label]
    for path in COVERS[label]:
        assert lookup(snapshot, path) > 0, f"{label}: {path} is zero"
