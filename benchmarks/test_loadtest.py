"""Bench: cluster serving capacity under a 1000-client zipfian load.

The cluster acceptance run: one thousand concurrent closed-loop
clients against a self-hosted 4-worker
:class:`~repro.serve.scheduler.Scheduler`, a zipfian hot/cold mix over 24 distinct cells with a 10% tier-0 predict
fraction.  The SLO gate is asserted (zero failures, p99 bound,
nonzero coalescing) and the full report is committed as
``benchmarks/BENCH_loadtest.json`` — the measured capacity numbers
quoted in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from pathlib import Path

from conftest import bench_once

from repro.analysis import ascii_table
from repro.loadtest import LoadTestConfig, MixConfig, SloConfig, run_loadtest

CLIENTS = 1000
WORKERS = 4
POPULATION = 24
PREDICT_FRACTION = 0.10
SCALE = 0.1

#: The committed service-level objectives.  p99 is bounded by the cold
#: simulation tail (a cold cell at this scale simulates in ~0.2-0.5 s;
#: queueing behind the whole cold set on 4 workers stays well under
#: this), coalescing must actually happen under a zipfian mix, and no
#: request may fail.
SLO = SloConfig(p99_s=30.0, min_coalescing_rate=0.05, max_failures=0)

BENCH_JSON = Path(__file__).parent / "BENCH_loadtest.json"


def collect():
    config = LoadTestConfig(
        clients=CLIENTS,
        mix=MixConfig(population=POPULATION,
                      predict_fraction=PREDICT_FRACTION, scale=SCALE),
        slo=SLO,
        workers=WORKERS,
        ramp_seconds=2.0,
    )
    report = run_loadtest(config)
    assert report.passed, report.violations
    assert report.completed == CLIENTS
    assert report.predict_answers > 0          # tier-0 path exercised
    return report


def test_cluster_loadtest_slo(benchmark, show):
    report = bench_once(benchmark, collect)
    doc = report.to_dict()
    payload = {
        "population": POPULATION,
        "zipf_exponent": MixConfig().zipf_exponent,
        "predict_fraction": PREDICT_FRACTION,
        "scale": SCALE,
        "slo": {
            "p99_s": SLO.p99_s,
            "min_coalescing_rate": SLO.min_coalescing_rate,
            "max_failures": SLO.max_failures,
        },
        **doc,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
    lat = doc["latency_s"]
    show(ascii_table(
        ["metric", "value"],
        [
            ("clients / workers", f"{CLIENTS} / {WORKERS}"),
            ("completed / failed",
             f"{report.completed} / {report.failed}"),
            ("throughput", f"{doc['throughput_rps']} req/s"),
            ("latency p50 / p99", f"{lat['p50']} / {lat['p99']} s"),
            ("coalescing rate", f"{doc['coalescing_rate']}"),
            ("store-hit rate", f"{doc['store_hit_rate']}"),
            ("hot rate", f"{doc['hot_rate']}"),
            ("predict answers", str(report.predict_answers)),
        ],
        title=(f"Cluster loadtest: {CLIENTS} clients vs {WORKERS} "
               f"workers — SLOs held"),
    ))
    # the structural claims behind the SLOs: a zipfian mix must be
    # served mostly hot, and everything completed exactly once
    assert report.hot_rate > 0.5, doc
    assert report.worker_restarts == 0, doc
