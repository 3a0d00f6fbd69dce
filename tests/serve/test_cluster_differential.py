"""The sharding acceptance oracle: sharded sweep == serial executor.

A bulk sweep fanned across a 4-worker
:class:`~repro.serve.scheduler.Scheduler` (real process pool, cells
sharded by content address) must leave **byte-identical** files in its
result store as the serial :class:`SweepExecutor` running the same grid —
same filenames (same content addresses) and same bytes (same payloads,
``sort_keys`` canonical JSON).  Worker identity, shard placement and
completion order must be invisible in the artefacts.
"""

from __future__ import annotations

import asyncio

from repro.experiments.executor import SweepExecutor
from repro.experiments.store import ResultStore
from repro.serve.protocol import parse_job_request, sweep_request
from repro.serve.scheduler import Scheduler

APPS = ["MM", "HS"]
SCHEMES = ["baseline", "dlp"]


def read_store(root) -> dict:
    return {path.name: path.read_bytes()
            for path in root.glob("*.json")}


def test_sharded_cluster_sweep_matches_serial_store(tmp_path):
    serial_store = ResultStore(tmp_path / "serial")
    SweepExecutor(store=serial_store, jobs=1).run_sweep(
        APPS, SCHEMES, num_sms=1, scale=0.1)

    async def cluster_sweep():
        scheduler = Scheduler(
            store=ResultStore(tmp_path / "cluster"), workers=4)
        await scheduler.start()
        try:
            job = scheduler.submit(parse_job_request(
                sweep_request(APPS, SCHEMES, sms=1, scale=0.1)))
            while not job.done:
                await asyncio.sleep(0.01)
            assert job.state == "done", job.error
        finally:
            await scheduler.shutdown()

    asyncio.run(asyncio.wait_for(cluster_sweep(), timeout=300))

    serial = read_store(tmp_path / "serial")
    cluster = read_store(tmp_path / "cluster")
    assert len(serial) == len(APPS) * len(SCHEMES)
    assert sorted(serial) == sorted(cluster)      # same content addresses
    for name, payload in serial.items():
        assert cluster[name] == payload, f"store divergence in {name}"
