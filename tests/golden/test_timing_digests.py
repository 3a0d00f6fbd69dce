"""Seed-0 timing digests that do not depend on the numpy build.

``perfbench/digests.json`` pins a 16-hex-digit digest of every
timing-fig10 cell's result at seed 0.  BFS and SR2K draw from numpy
``Generator`` streams, which numpy does not promise to keep across
releases, so their digests hold only on the build that wrote them.
KM, SS and HS draw no random numbers: their 15 cells must reproduce the
committed digests on any numpy build and on both L1D engines.

Each cell runs the way the benchmark's timing-fig10 workload runs it
(2 SMs, scale 0.25, seed 0).  This test only reads the digest file; the
benchmark's ``--update-digests`` is what writes it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.executor import Cell, simulate_cell
from repro.experiments.runner import FIG10_SCHEMES
from repro.experiments.store import canonical_json

DIGESTS_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "digests.json"
APPS = ("KM", "SS", "HS")
ENGINES = ("reference", "fast")


def committed_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))["timing-fig10"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheme", FIG10_SCHEMES)
@pytest.mark.parametrize("app", APPS)
def test_timing_digest_matches(app, scheme, engine):
    payload = simulate_cell(
        Cell.make(app, scheme, num_sms=2, scale=0.25, seed=0, engine=engine)
    )
    seen = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]
    assert seen == committed_digests()[f"{app}/{scheme}"], (
        f"{app}/{scheme} on {engine}: the timing result changed"
    )
