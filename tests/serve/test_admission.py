"""Warm jobs settle at admission; each configuration has one cell.

``Scheduler.submit`` settles a job on the spot when every unit's shared
payload (``test_shared_payload.py``) is at its entry's current version
and no unit is in flight: no job task, no unit task, and the POST
already answers ``done``.  Everything else (a cold cell, a cell in
flight, the first read of an entry version, a job with any such unit)
runs on the job's task exactly as before, so these tests pin both
sides, counter by counter.  A warm ``predict: true`` repeat settles the
same way, since its exact-flagged answer holds the shared payload.
``submit`` also swaps each unit for the one ``Cell`` kept for its
configuration, so a key is computed once.  Past the job table's bound,
20,000 warm jobs hold no more memory than 2,000.  Stub simulation on a
thread pool, as in ``test_scheduler.py``.
"""

from __future__ import annotations

import asyncio
import gc
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import repro.experiments.executor as executor_module
from repro.experiments.store import MemoryStore, ResultStore
from repro.gpu.simulator import SimResult
from repro.serve.protocol import cell_request, parse_job_request, sweep_request
from repro.serve.scheduler import RETAINED_JOBS, Scheduler
from repro.serve.server import ServerThread
from tests.serve.test_scheduler import StubSim, run, settle
from tests.serve.test_shared_payload import (
    CELL,
    KEY,
    SIMULATED,
    CountingGets,
    served,
    started,
)

OTHER = cell_request("MM", "dlp", sms=1, scale=0.1)


def counters(scheduler) -> dict:
    """Every counter a warm job may move."""
    metrics = scheduler.metrics
    stats = scheduler.store.stats
    return {
        "jobs_submitted": metrics.jobs_submitted,
        "jobs_done": metrics.jobs_done,
        "cells_requested": metrics.cells_requested,
        "cells_store_hits": metrics.cells_store_hits,
        "cells_coalesced": metrics.cells_coalesced,
        "cells_simulated": metrics.cells_simulated,
        "store_hits": stats.hits,
        "store_misses": stats.misses,
    }


def moved(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in before
            if after[name] != before[name]}


def submit(scheduler, body=CELL):
    return scheduler.submit(parse_job_request(body))


async def warmed(scheduler, body=CELL) -> None:
    """Simulate ``body``'s cells, then read them once: from here on
    each has a shared payload at its entry's current version."""
    await served(scheduler, body)
    await served(scheduler, body)


class TestSettledAtAdmission:
    def test_warm_repeat_settles_inside_submit(self, tmp_path):
        async def body():
            scheduler = await started(ResultStore(tmp_path / "store"))
            reads = CountingGets(scheduler.store)
            try:
                await served(scheduler)
                # the first read of the entry runs on the job's task
                before = counters(scheduler)
                first = await settle(submit(scheduler))
                on_task = moved(before, counters(scheduler))
                # the repeat settles before submit returns
                before = counters(scheduler)
                job = submit(scheduler)
                assert job.state == "done"
                assert job.task is None
                assert job.finished_at is not None
                at_admission = moved(before, counters(scheduler))
                assert at_admission == on_task == {
                    "jobs_submitted": 1, "jobs_done": 1,
                    "cells_requested": 1, "cells_store_hits": 1,
                    "store_hits": 1,
                }
                assert reads.calls == 2
                assert job.results == first.results
                assert job.results[0]["result"] is first.results[0]["result"]
                assert not scheduler.cancel(job.id)
            finally:
                await scheduler.shutdown()
        run(body())

    def test_post_answers_done(self, tmp_path):
        with ServerThread(workers=1, store=tmp_path / "store",
                          pool=ThreadPoolExecutor(max_workers=1),
                          sim_fn=StubSim()) as srv:
            client = srv.client()
            cold = client.submit(CELL)
            assert cold["state"] == "queued"
            client.wait(cold["id"])
            first_read = client.submit(CELL)
            assert first_read["state"] == "queued"
            client.wait(first_read["id"])
            before = client.metrics()
            warm = client.submit(CELL)
            assert warm["state"] == "done"
            after = client.metrics()
            assert after["cells"]["store_hits"] == \
                before["cells"]["store_hits"] + 1
            assert after["store"]["hits"] == before["store"]["hits"] + 1
            assert after["cells"]["simulated"] == 1
            assert after["jobs"]["active"] == 0
            # clients still GET the results
            doc = client.wait(warm["id"])
            assert doc["results"][0]["result"] == SIMULATED

    def test_warm_predict_job_is_flagged_exact(self, tmp_path):
        async def body():
            scheduler = await started(ResultStore(tmp_path / "store"))
            try:
                await warmed(scheduler)
                job = submit(scheduler, dict(CELL, predict=True))
                assert job.state == "done" and job.task is None
                answer = job.results[0]["result"]
                assert answer["tier"] == "exact"
                assert answer is not scheduler._payloads[KEY]
                assert "tier" not in scheduler._payloads[KEY]
                assert {k: v for k, v in answer.items() if k != "tier"} \
                    == SIMULATED
            finally:
                await scheduler.shutdown()
        run(body())

    def test_warm_predict_repeats_settle_at_admission(self, tmp_path):
        predict = dict(CELL, predict=True)

        async def body():
            scheduler = await started(ResultStore(tmp_path / "store"))
            reads = CountingGets(scheduler.store)
            try:
                await warmed(scheduler)
                # no plain job holds the entry's shared payload any more
                scheduler.jobs.clear()
                gc.collect()
                assert KEY not in scheduler._payloads
                first = await settle(submit(scheduler, predict))
                assert reads.calls == 3
                tasks = asyncio.all_tasks()
                before = counters(scheduler)
                repeats = [submit(scheduler, predict) for _ in range(500)]
                assert all(job.state == "done" and job.task is None
                           for job in repeats)
                assert asyncio.all_tasks() == tasks
                assert reads.calls == 3
                assert moved(before, counters(scheduler)) == {
                    "jobs_submitted": 500, "jobs_done": 500,
                    "cells_requested": 500, "cells_store_hits": 500,
                    "store_hits": 500,
                }
                assert all(job.results == first.results for job in repeats)
                assert "tier" not in scheduler._payloads[KEY]
            finally:
                await scheduler.shutdown()
        run(body())

    def test_two_warm_units_settle_together(self, tmp_path):
        grid = sweep_request(["MM"], ["baseline", "dlp"], sms=1, scale=0.1)

        async def body():
            scheduler = await started(ResultStore(tmp_path / "store"))
            try:
                await warmed(scheduler, grid)
                before = counters(scheduler)
                job = submit(scheduler, grid)
                assert job.state == "done" and job.task is None
                assert moved(before, counters(scheduler)) == {
                    "jobs_submitted": 1, "jobs_done": 1,
                    "cells_requested": 2, "cells_store_hits": 2,
                    "store_hits": 2,
                }
            finally:
                await scheduler.shutdown()
        run(body())


class TestRunsOnItsTask:
    """What does not settle at admission keeps today's path and counts."""

    def test_cold_cell(self, tmp_path):
        async def body():
            sim = StubSim()
            scheduler = await started(ResultStore(tmp_path / "store"), sim)
            reads = CountingGets(scheduler.store)
            try:
                job = submit(scheduler)
                assert job.state == "queued" and job.task is not None
                before = counters(scheduler)
                await settle(job)
                assert moved(before, counters(scheduler)) == {
                    "jobs_done": 1, "cells_requested": 1,
                    "cells_simulated": 1, "store_misses": 1,
                }
                assert sim.calls == ["MM/baseline"]
                assert reads.calls == 1
            finally:
                await scheduler.shutdown()
        run(body())

    def test_cell_in_flight_coalesces_though_its_payload_is_current(self):
        async def body():
            gate = threading.Event()
            sim = StubSim(gate=gate)
            store = MemoryStore()
            scheduler = await started(store, sim)
            try:
                running = submit(scheduler)
                while scheduler.running_count() != 1:
                    await asyncio.sleep(0.005)
                # another writer stores the cell while it is in flight,
                # and the entry is read: its shared payload is current
                store.put(KEY, SimResult.from_dict(SIMULATED))
                shared = scheduler._stored(KEY)
                assert scheduler._current(KEY)[0] is shared
                before = counters(scheduler)
                waiter = submit(scheduler)
                assert waiter.state == "queued"
                assert waiter.task is not None
                gate.set()
                await settle(running)
                await settle(waiter)
                assert moved(before, counters(scheduler)) == {
                    "jobs_submitted": 1, "jobs_done": 2,
                    "cells_requested": 1, "cells_coalesced": 1,
                    "cells_simulated": 1,
                }
                assert waiter.results == running.results
                assert sim.calls == ["MM/baseline"]
            finally:
                gate.set()
                await scheduler.shutdown()
        run(body())

    def test_first_read_of_an_entry_version(self, tmp_path):
        async def body():
            store = ResultStore(tmp_path / "store")
            store.put(KEY, SimResult.from_dict(SIMULATED))
            scheduler = await started(store)
            reads = CountingGets(store)
            try:
                job = submit(scheduler)
                assert job.state == "queued" and job.task is not None
                before = counters(scheduler)
                await settle(job)
                assert moved(before, counters(scheduler)) == {
                    "jobs_done": 1, "cells_requested": 1,
                    "cells_store_hits": 1, "store_hits": 1,
                }
                assert reads.calls == 1
                assert job.results[0]["result"] is scheduler._payloads[KEY]
            finally:
                await scheduler.shutdown()
        run(body())

    def test_job_with_one_cold_unit(self, tmp_path):
        grid = sweep_request(["MM"], ["baseline", "dlp"], sms=1, scale=0.1)

        async def body():
            sim = StubSim()
            scheduler = await started(ResultStore(tmp_path / "store"), sim)
            reads = CountingGets(scheduler.store)
            try:
                await warmed(scheduler)
                assert reads.calls == 2
                job = submit(scheduler, grid)
                assert job.state == "queued" and job.task is not None
                before = counters(scheduler)
                await settle(job)
                assert job.state == "done"
                # the warm unit is a shared hit (no read), the cold one
                # one counted miss and one simulation
                assert moved(before, counters(scheduler)) == {
                    "jobs_done": 1, "cells_requested": 2,
                    "cells_store_hits": 1, "cells_simulated": 1,
                    "store_hits": 1, "store_misses": 1,
                }
                assert reads.calls == 3
                assert sim.calls == ["MM/baseline", "MM/dlp"]
            finally:
                await scheduler.shutdown()
        run(body())


class TestOneCellPerConfiguration:
    def test_jobs_share_one_cell_and_one_key(self, tmp_path, monkeypatch):
        compute = executor_module.cell_key
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[:2])
            return compute(*args, **kwargs)

        monkeypatch.setattr(executor_module, "cell_key", counting)

        async def body():
            scheduler = await started(ResultStore(tmp_path / "store"))
            try:
                jobs = [await settle(submit(scheduler)) for _ in range(3)]
                (cell,) = jobs[0].request.units
                assert all(job.request.units[0] is cell for job in jobs)
                assert calls == [("MM", "baseline")]
                assert all(job.results[0]["unit"]["key"] == KEY
                           for job in jobs)
            finally:
                await scheduler.shutdown()
        run(body())

    def test_spellings_keep_their_own_keys(self, tmp_path):
        def knob(value):
            return cell_request("MM", "dlp", sms=1, scale=0.1,
                                policy_kwargs={"bypass_enabled": value})

        as_int, as_bool = knob(1), knob(True)
        fresh = {name: parse_job_request(body).units[0]
                 for name, body in (("int", as_int), ("bool", as_bool))}
        # equal as cells, yet two store keys, each the one it always had
        assert fresh["int"] == fresh["bool"]
        assert fresh["int"].key().startswith("3add5f")
        assert fresh["bool"].key().startswith("79b950")

        async def body():
            scheduler = await started(ResultStore(tmp_path / "store"))
            try:
                for _ in range(2):
                    for name, request in (("int", as_int),
                                          ("bool", as_bool)):
                        job = await settle(submit(scheduler, request))
                        (unit,) = job.request.units
                        assert unit.key() == fresh[name].key()
                        assert job.results[0]["unit"]["key"] \
                            == fresh[name].key()
                assert scheduler.metrics.cells_simulated == 2
            finally:
                await scheduler.shutdown()
        run(body())

    def test_table_entry_goes_with_the_last_job(self, tmp_path):
        async def body():
            scheduler = await started(ResultStore(tmp_path / "store"))
            try:
                await warmed(scheduler)
                cell = weakref.ref(submit(scheduler).request.units[0])
                assert len(scheduler._cells) == 1
                scheduler.jobs.clear()
                gc.collect()
                assert cell() is None
                assert len(scheduler._cells) == 0
            finally:
                await scheduler.shutdown()
        run(body())


def walk(scheduler) -> int:
    """What ``active_jobs()`` counted before it kept a running count."""
    return sum(1 for job in scheduler.jobs.values() if not job.done)


class TestActiveJobs:
    def test_count_matches_a_walk_of_the_jobs(self, tmp_path):
        async def body():
            gate = threading.Event()
            scheduler = await started(ResultStore(tmp_path / "store"),
                                      StubSim(gate=gate))
            try:
                blocked = submit(scheduler, OTHER)
                while scheduler.running_count() != 1:
                    await asyncio.sleep(0.005)
                queued = submit(scheduler)
                await asyncio.sleep(0.01)
                assert scheduler.active_jobs() == walk(scheduler) == 2
                task = queued.task
                assert scheduler.cancel(queued.id)
                await asyncio.gather(task, return_exceptions=True)
                assert queued.state == "cancelled"
                assert scheduler.active_jobs() == walk(scheduler) == 1
                gate.set()
                await settle(blocked)
                await warmed(scheduler)
                settled = submit(scheduler)
                assert settled.task is None
                assert scheduler.active_jobs() == walk(scheduler) == 0
            finally:
                gate.set()
                await scheduler.shutdown()
        run(body())

    def test_failed_job_leaves_the_count(self, tmp_path):
        async def body():
            scheduler = await started(ResultStore(tmp_path / "store"),
                                      StubSim(fail=True))
            try:
                job = submit(scheduler)
                assert scheduler.active_jobs() == walk(scheduler) == 1
                await job.task
                assert job.state == "failed"
                assert scheduler.active_jobs() == walk(scheduler) == 0
                assert scheduler.metrics_snapshot()["jobs"]["active"] == 0
                assert scheduler.health()["jobs_active"] == 0
            finally:
                await scheduler.shutdown()
        run(body())


class TestNoTaskBlocks:
    """Warm jobs leave nothing behind in asyncio (no task, no gather),
    and past the job table's bound they hold no more memory; cold jobs,
    which run a task and a ``gather``, leave nothing behind either."""

    APPS = ("MM", "BFS", "HS", "BT")
    SCHEMES = ("baseline", "dlp")
    JOBS = 20_000
    #: Past the bound (1,024 settled jobs), so the table is full here.
    FULL = 2_000
    #: How far the traced total may move between ``FULL`` and ``JOBS``.
    SLACK_BYTES = 64 * 1024

    def test_warm_jobs_allocate_nothing_in_asyncio_tasks(self, tmp_path):
        plain = [cell_request(app, scheme, sms=1, scale=0.1)
                 for app in self.APPS for scheme in self.SCHEMES]
        bodies = plain + [dict(cell, predict=True) for cell in plain]

        async def body():
            scheduler = await started(ResultStore(tmp_path / "store"))
            try:
                for cell in plain:
                    await warmed(scheduler, cell)
                tracemalloc.start()
                try:
                    for n in range(self.JOBS):
                        job = submit(scheduler, bodies[n % len(bodies)])
                        assert job.state == "done" and job.task is None
                        assert len(scheduler.jobs) <= RETAINED_JOBS
                        if n + 1 == self.FULL:
                            gc.collect()
                            full = tracemalloc.get_traced_memory()[0]
                    del job
                    gc.collect()
                    after = tracemalloc.get_traced_memory()[0]
                    snapshot = tracemalloc.take_snapshot()
                finally:
                    tracemalloc.stop()
                assert abs(after - full) <= self.SLACK_BYTES, (full, after)
                held = snapshot.filter_traces(
                    [tracemalloc.Filter(True, asyncio.tasks.__file__)])
                assert held.statistics("filename") == []
                assert scheduler.metrics.jobs_evicted == \
                    self.JOBS + 2 * len(plain) - RETAINED_JOBS
            finally:
                await scheduler.shutdown()
        run(body())

    def test_cold_jobs_allocate_nothing_in_asyncio_tasks(self, tmp_path):
        async def body():
            scheduler = Scheduler(store=ResultStore(tmp_path / "store"),
                                  workers=2,
                                  pool=ThreadPoolExecutor(max_workers=2),
                                  sim_fn=StubSim())
            await scheduler.start()
            try:
                tracemalloc.start()
                try:
                    for seed in range(300):
                        cold = cell_request("MM", "baseline", sms=1,
                                            scale=0.1, seed=seed) \
                            if seed % 2 else sweep_request(
                                ["MM", "HS"], ["baseline", "dlp"], sms=1,
                                scale=0.1, seed=seed)
                        job = submit(scheduler, cold)
                        # awaited on its own task: the polling helper
                        # ``settle`` keeps a block there of its own
                        # (``asyncio.sleep``'s)
                        await job.task
                        assert job.state == "done", job.error
                    del job
                    gc.collect()
                    snapshot = tracemalloc.take_snapshot()
                finally:
                    tracemalloc.stop()
                held = snapshot.filter_traces(
                    [tracemalloc.Filter(True, asyncio.tasks.__file__)])
                assert held.statistics("filename") == []
                assert scheduler.metrics.cells_simulated == 150 + 4 * 150
            finally:
                await scheduler.shutdown()
        run(body())
