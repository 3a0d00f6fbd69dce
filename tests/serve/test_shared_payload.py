"""Warm cells share one parsed payload per store entry version.

The scheduler answers a repeat of a stored cell with the dict it built
the last time, for as long as one ``stat`` finds the entry at the
version it was read from.  These tests pin both halves of that
contract: repeats share one object, and every change to the entry (a
new ``put``, a replace by another writer, an edit in place, ``prune``,
``clear``, a torn file) makes the next request read, miss or simulate
exactly as ``store.get`` would.  Stub simulation on a thread pool, as
in ``test_scheduler.py``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.store import MemoryStore, ResultStore
from repro.gpu.simulator import SimResult
from repro.serve.protocol import cell_request, parse_job_request
from repro.serve.scheduler import Scheduler
from tests.serve.test_scheduler import StubSim, payload_for, run, settle

CELL = cell_request("MM", "baseline", sms=1, scale=0.1)
KEY = parse_job_request(CELL).units[0].key()
SIMULATED = payload_for(parse_job_request(CELL).units[0])


def no_prediction(cell, trace_dir=None):
    raise AssertionError("a stored cell never reaches the predictor")


class CountingGets:
    """Counts the entry reads the scheduler makes through ``store.get``."""

    def __init__(self, store) -> None:
        self.calls = 0
        self._get = store.get
        store.get = self

    def __call__(self, key):
        self.calls += 1
        return self._get(key)


async def started(store, sim=None) -> Scheduler:
    scheduler = Scheduler(store=store, workers=1,
                          pool=ThreadPoolExecutor(max_workers=1),
                          sim_fn=sim if sim is not None else StubSim(),
                          predict_fn=no_prediction)
    await scheduler.start()
    return scheduler


async def served(scheduler: Scheduler, body=CELL):
    job = await settle(scheduler.submit(parse_job_request(body)))
    assert job.state == "done", job.error
    return job.results[0]["result"]


@pytest.fixture(params=["disk", "memory"])
def store(request, tmp_path):
    return ResultStore(tmp_path / "store") if request.param == "disk" \
        else MemoryStore()


class TestSharing:
    def test_warm_jobs_hold_one_payload(self, store):
        async def body():
            sim = StubSim()
            scheduler = await started(store, sim)
            reads = CountingGets(store)
            try:
                cold = await served(scheduler)
                first = await served(scheduler)
                second = await served(scheduler)
                assert sim.calls == ["MM/baseline"]
                assert first is second
                assert first == cold == SIMULATED
                # the cold miss and the first warm request read; the
                # second warm request only stats
                assert reads.calls == 2
                assert store.stats.hits == 2
                assert store.stats.hits == scheduler.metrics.cells_store_hits
            finally:
                await scheduler.shutdown()
        run(body())

    def test_predict_tier_stays_out_of_the_shared_payload(self, store):
        async def body():
            scheduler = await started(store)
            try:
                await served(scheduler)
                predicted = await served(
                    scheduler, dict(CELL, predict=True))
                plain = await served(scheduler)
                again = await served(scheduler, dict(CELL, predict=True))
                assert predicted["tier"] == again["tier"] == "exact"
                assert predicted is not again
                assert "tier" not in plain
                assert "tier" not in scheduler._payloads[KEY]
                assert plain is scheduler._payloads[KEY]
                assert {k: v for k, v in predicted.items()
                        if k != "tier"} == plain
            finally:
                await scheduler.shutdown()
        run(body())

    def test_table_entry_goes_with_the_last_job(self, tmp_path):
        async def body():
            scheduler = await started(ResultStore(tmp_path / "store"))
            try:
                await served(scheduler)
                await served(scheduler)
                assert KEY in scheduler._payloads
                scheduler.jobs.clear()
                gc.collect()
                assert KEY not in scheduler._payloads
                # and the next request reads the entry afresh
                assert await served(scheduler) == SIMULATED
                assert scheduler.metrics.cells_simulated == 1
            finally:
                await scheduler.shutdown()
        run(body())


def _edited(stored: dict) -> dict:
    return dict(stored, cycles=1234567)


def put_other_result(store, path):
    store.put(KEY, SimResult.from_dict(_edited(SIMULATED)))


def replace_from_another_writer(store, path):
    staged = path.with_name("another-writer.tmp")
    staged.write_text(json.dumps({"meta": {}, "result": _edited(SIMULATED)}))
    os.replace(staged, path)


def edit_in_place(store, path):
    before = path.stat()
    with open(path, "r+", encoding="utf-8") as fh:
        doc = json.load(fh)
        doc["result"] = _edited(doc["result"])
        fh.seek(0)
        fh.write(json.dumps(doc))
        fh.truncate()
    after = path.stat()
    assert after.st_ino == before.st_ino
    assert after.st_size != before.st_size


def tear(store, path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


CHANGES = {
    # name: (change, the next request simulates)
    "put": (put_other_result, False),
    "replace": (replace_from_another_writer, False),
    "edit": (edit_in_place, False),
    "prune": (lambda store, path: store.prune(max_entries=0), True),
    "clear": (lambda store, path: store.clear(), True),
    "torn": (tear, True),
}


class TestChangedEntry:
    @pytest.mark.parametrize("name", sorted(CHANGES))
    def test_next_request_follows_the_store(self, tmp_path, name):
        change, simulates = CHANGES[name]

        async def body():
            store = ResultStore(tmp_path / "store")
            sim = StubSim()
            scheduler = await started(store, sim)
            reads = CountingGets(store)
            try:
                await served(scheduler)
                warm = await served(scheduler)
                assert reads.calls == 2
                change(store, tmp_path / "store" / f"{KEY}.json")
                # what a fresh reader of the store gets now
                current = ResultStore(tmp_path / "store").get(KEY)
                misses = store.stats.misses
                answer = await served(scheduler)
                assert reads.calls == 3
                assert answer is not warm
                if simulates:
                    assert current is None
                    assert store.stats.misses == misses + 1
                    assert len(sim.calls) == 2
                    assert answer == SIMULATED
                else:
                    assert len(sim.calls) == 1
                    assert answer == current.to_dict() == _edited(SIMULATED)
                # and the new version is shared in turn (a simulated
                # payload came from the worker: the store is read once)
                shared = await served(scheduler)
                assert (shared is answer) is not simulates
                assert await served(scheduler) is shared
                assert reads.calls == 3 + simulates
            finally:
                await scheduler.shutdown()
        run(body())

    def test_memory_store_put_of_an_equal_result_rereads(self):
        async def body():
            store = MemoryStore()
            scheduler = await started(store)
            reads = CountingGets(store)
            try:
                await served(scheduler)
                warm = await served(scheduler)
                store.put(KEY, SimResult.from_dict(SIMULATED))
                answer = await served(scheduler)
                assert answer == warm
                assert answer is not warm
                assert reads.calls == 3
            finally:
                await scheduler.shutdown()
        run(body())


class TestEntryVersion:
    def test_memory_store_version_changes_on_every_put(self):
        store = MemoryStore()
        result = SimResult.from_dict(SIMULATED)
        assert store.entry_version(KEY) is None
        seen = []
        for same in (result, result, SimResult.from_dict(SIMULATED)):
            store.put(KEY, same)
            seen.append(store.entry_version(KEY))
        assert len(set(seen)) == 3
        store.clear()
        assert store.entry_version(KEY) is None

    def test_disk_store_version_is_one_stat(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.entry_version(KEY) is None
        store.put(KEY, SimResult.from_dict(SIMULATED))
        st = os.stat(tmp_path / f"{KEY}.json")
        assert store.entry_version(KEY) == (
            st.st_ino, st.st_mtime_ns, st.st_size)
        # a put stages its file beside the old entry: a new inode
        store.put(KEY, SimResult.from_dict(SIMULATED))
        assert store.entry_version(KEY)[0] != st.st_ino
        assert store.stats.hits == store.stats.misses == 0


class TestSettledJobs:
    def test_settled_jobs_hold_no_task(self, tmp_path):
        async def body():
            gate = threading.Event()
            scheduler = await started(ResultStore(tmp_path / "store"),
                                      StubSim(gate=gate))
            try:
                blocked = scheduler.submit(parse_job_request(CELL))
                task = blocked.task
                await asyncio.sleep(0.01)
                assert scheduler.cancel(blocked.id)
                await asyncio.gather(task, return_exceptions=True)
                assert blocked.state == "cancelled"
                assert blocked.task is None
                gate.set()
                done = await settle(scheduler.submit(parse_job_request(CELL)))
                assert done.state == "done"
                assert done.task is None
                assert not scheduler.cancel(done.id)
            finally:
                gate.set()
                await scheduler.shutdown()
        run(body())

    def test_failed_job_holds_no_task(self, tmp_path):
        async def body():
            scheduler = await started(ResultStore(tmp_path / "store"),
                                      StubSim(fail=True))
            try:
                job = scheduler.submit(parse_job_request(CELL))
                await job.task
                assert job.state == "failed"
                assert job.task is None
            finally:
                await scheduler.shutdown()
        run(body())
