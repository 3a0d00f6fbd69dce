"""Bench: service economics — cold simulation vs. warm store hits.

The serving layer's pitch is that a result is simulated once, ever:
the first request pays full simulation latency, every identical
request after it — concurrent (coalesced onto the in-flight run) or
later (served from the store) — pays only request overhead.  This
bench measures all three against a live in-process server, asserts the
exactly-once accounting on the service counters (never wall clock),
and writes ``benchmarks/BENCH_serve_latency.json``.

One request moves by tens of percent between runs, so the cold and
warm latencies are medians: cold over ``COLD_SEEDS`` distinct cells,
warm over ``WARM_REQUESTS`` repeats of one stored cell.  Clients poll
every ``POLL_S``: at the client's default 50 ms, a cold cell that
simulates in about 50 ms reads as one poll or two, 0.055 s or 0.105 s.
"""

from __future__ import annotations

import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from conftest import bench_once

from repro.analysis import ascii_table
from repro.serve.protocol import cell_request
from repro.serve.server import ServerThread

APP = "MM"
SCHEME = "dlp"
NUM_SMS = 1
SCALE = 0.25
FANOUT = 3
#: Distinct cold cells (one seed each) behind the cold median.
COLD_SEEDS = (0, 1, 2)
#: Warm repeats of one stored cell behind the warm median.
WARM_REQUESTS = 20
#: Status poll interval while a job runs.
POLL_S = 0.005

BENCH_JSON = Path(__file__).parent / "BENCH_serve_latency.json"


def run_job(client, body):
    return client.wait(client.submit(body)["id"], timeout=300, poll=POLL_S)


def timed_run(client, body) -> float:
    t0 = time.perf_counter()
    run_job(client, body)
    return time.perf_counter() - t0


def collect(tmp_root: Path):
    bodies = [cell_request(APP, SCHEME, sms=NUM_SMS, scale=SCALE, seed=seed)
              for seed in COLD_SEEDS]
    with ServerThread(workers=2, store=tmp_root / "store") as srv:
        client = srv.client()

        cold_s = statistics.median(timed_run(client, body)
                                   for body in bodies)
        warm_s = statistics.median(timed_run(client, bodies[0])
                                   for _ in range(WARM_REQUESTS))

        # a distinct cold cell, requested by FANOUT concurrent clients:
        # everyone waits on the one in-flight simulation
        shared = cell_request(APP, "baseline", sms=NUM_SMS, scale=SCALE)
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=FANOUT) as pool:
            docs = list(pool.map(
                lambda _i: run_job(srv.client(), shared),
                range(FANOUT),
            ))
        coalesced_s = time.perf_counter() - t0

        metrics = client.metrics()

    # exactly-once accounting, on counters
    assert metrics["cells"]["simulated"] == len(COLD_SEEDS) + 1, \
        metrics["cells"]
    assert metrics["store"]["hits"] + metrics["cells"]["coalesced"] >= FANOUT
    # a warm repeat reuses the parsed entry, and still counts as a hit
    assert metrics["store"]["hits"] == metrics["cells"]["store_hits"], metrics
    payloads = [d["results"][0]["result"] for d in docs]
    assert all(p == payloads[0] for p in payloads)

    return {
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "coalesced_fanout_s": round(coalesced_s, 4),
        "warm_speedup": round(cold_s / warm_s, 2),
        "counters": {
            "simulated": metrics["cells"]["simulated"],
            "coalesced": metrics["cells"]["coalesced"],
            "store_hits": metrics["store"]["hits"],
        },
    }


def test_serve_latency_economics(benchmark, show, tmp_path):
    data = bench_once(benchmark, lambda: collect(tmp_path))
    payload = {
        "app": APP,
        "scheme": SCHEME,
        "num_sms": NUM_SMS,
        "scale": SCALE,
        "fanout": FANOUT,
        "cold_seeds": list(COLD_SEEDS),
        "warm_requests": WARM_REQUESTS,
        **data,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    show(ascii_table(
        ["request", "latency (s)"],
        [
            (f"cold (simulates; median of {len(COLD_SEEDS)} cells)",
             f"{data['cold_s']:.3f}"),
            (f"warm (store hit; median of {WARM_REQUESTS})",
             f"{data['warm_s']:.3f}"),
            (f"{FANOUT} concurrent cold (1 sim)",
             f"{data['coalesced_fanout_s']:.3f}"),
        ],
        title=(f"Service latency, {APP}/{SCHEME}: warm is "
               f"{data['warm_speedup']:.0f}x faster than cold"),
    ))
    # the claim is structural (a warm hit never simulates), so the win
    # must be wide, not timing noise; and fanning out N cold requests
    # must cost ~one simulation, not N
    assert data["warm_speedup"] > 2, data
    assert data["coalesced_fanout_s"] < FANOUT * data["cold_s"], data
