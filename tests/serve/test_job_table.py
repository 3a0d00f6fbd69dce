"""The job table keeps every active job and the last settled ones.

``Scheduler.jobs`` holds the active jobs and the ``RETAINED_JOBS``
most recently settled ones; every job settles exactly once, through
``Scheduler._retire``, whichever way it ends (at admission, at the end
of its task, or cancelled before its task started).  A :class:`Ledger`
watches every settle and checks, after each submit, settle and cancel,
that ``len(jobs) == active_jobs() + min(settled, bound)``.  An id the
scheduler issued but evicted answers 410 on every ``/jobs/<id>``
route; an id it never issued answers 404.  Stub simulation on a thread
pool, as in ``test_scheduler.py``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List

import pytest

import repro.serve.scheduler as scheduler_module
from repro.experiments.store import MemoryStore
from repro.serve.protocol import cell_request, parse_job_request
from repro.serve.server import ServeApp, ServerThread
from tests.serve.test_scheduler import StubSim, run, settle
from tests.serve.test_shared_payload import CELL, started

OTHER = cell_request("MM", "dlp", sms=1, scale=0.1)
BROKEN = cell_request("HS", "baseline", sms=1, scale=0.1)


class Ledger:
    """Records every settle of ``scheduler``'s jobs and checks the
    table's invariant after each one (and whenever a test asks)."""

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler
        self.submitted: List[str] = []
        self.settled: List[str] = []
        retire = scheduler._retire

        def settling(job) -> None:
            assert job.id not in self.settled, f"{job.id} settled twice"
            retire(job)
            self.settled.append(job.id)
            assert job.done and job.task is None
            assert job.finished_at is not None
            self.check_counts()

        scheduler._retire = settling

    def submit(self, body=CELL):
        job = self.scheduler.submit(parse_job_request(body))
        self.submitted.append(job.id)
        self.check()
        return job

    def check_counts(self) -> None:
        scheduler = self.scheduler
        bound = scheduler_module.RETAINED_JOBS
        assert len(scheduler.jobs) == \
            scheduler.active_jobs() + min(len(self.settled), bound)
        assert scheduler.metrics.jobs_evicted == \
            max(0, len(self.settled) - bound)

    def check(self) -> None:
        """The counts, and which jobs the table holds: every active
        job, and the newest settled ones, in submission order."""
        self.check_counts()
        bound = scheduler_module.RETAINED_JOBS
        settled = set(self.settled)
        kept = set(self.settled[-bound:]) if bound else set()
        assert list(self.scheduler.jobs) == \
            [i for i in self.submitted if i not in settled or i in kept]

    def all_settled_once(self) -> bool:
        return sorted(self.settled) == sorted(self.submitted)


class FailingSim(StubSim):
    """Fails the HS cells, simulates the rest."""

    def __call__(self, cell):
        if cell.abbr == "HS":
            raise RuntimeError("injected simulation failure")
        return super().__call__(cell)


@pytest.fixture()
def bound(monkeypatch):
    def patch(value: int) -> int:
        monkeypatch.setattr(scheduler_module, "RETAINED_JOBS", value)
        return value
    return patch


class TestEveryJobSettlesOnce:
    def test_every_way_to_settle_keeps_the_bound(self, bound):
        bound(3)

        async def body():
            gate = threading.Event()
            sim = FailingSim(gate=gate)
            scheduler = await started(MemoryStore(), sim)
            ledger = Ledger(scheduler)
            try:
                # a cold job holds the worker; a second one queues
                # behind it and is cancelled while its task runs
                running = ledger.submit()
                while scheduler.running_count() != 1:
                    await asyncio.sleep(0.005)
                waiting = ledger.submit(OTHER)
                await asyncio.sleep(0.01)
                assert waiting.state == "running"
                assert scheduler.cancel(waiting.id)
                ledger.check()
                await settle(waiting)
                # cancelled before its task ever ran
                unstarted = ledger.submit(OTHER)
                assert scheduler.cancel(unstarted.id)
                ledger.check()
                failing = ledger.submit(BROKEN)
                gate.set()
                await settle(running)
                await settle(failing)
                assert failing.state == "failed"
                # the first read of the entry runs a task; the repeats
                # settle at admission
                await settle(ledger.submit())
                for _ in range(4):
                    assert ledger.submit().task is None
                await asyncio.sleep(0.01)
                ledger.check()
                assert ledger.all_settled_once()
                assert [job.state for job in (running, waiting, unstarted,
                                              failing)] == \
                    ["done", "cancelled", "cancelled", "failed"]
                metrics = scheduler.metrics
                assert (metrics.jobs_done, metrics.jobs_failed,
                        metrics.jobs_cancelled) == (6, 1, 2)
                assert metrics.jobs_evicted == 9 - 3
                assert list(scheduler.jobs) == ledger.submitted[-3:]
                assert scheduler.metrics_snapshot()["jobs"]["evicted"] == 6
            finally:
                gate.set()
                await scheduler.shutdown()
        run(body())

    def test_cancel_before_the_task_starts_settles_the_job(self):
        async def body():
            sim = StubSim()
            scheduler = await started(MemoryStore(), sim)
            ledger = Ledger(scheduler)
            try:
                job = ledger.submit()
                task = job.task
                assert scheduler.active_jobs() == 1
                # in the same event-loop step: the task never starts
                assert scheduler.cancel(job.id)
                assert job.state == "cancelled"
                assert job.finished_at is not None and job.task is None
                assert scheduler.active_jobs() == 0
                assert scheduler.metrics.jobs_cancelled == 1
                assert not scheduler.cancel(job.id)
                await asyncio.gather(task, return_exceptions=True)
                assert task.cancelled()
                assert job.state == "cancelled"
                assert scheduler.metrics.jobs_cancelled == 1
                assert scheduler.metrics.cells_requested == 0
                assert sim.calls == []
                assert ledger.all_settled_once()
            finally:
                await scheduler.shutdown()
        run(body())


class TestEvictedIds:
    def test_scheduler_tells_evicted_from_unknown(self, bound):
        bound(1)

        async def body():
            scheduler = await started(MemoryStore())
            ledger = Ledger(scheduler)
            try:
                first = await settle(ledger.submit())
                second = await settle(ledger.submit())
                ledger.check()
                assert first.id == "job-000001"
                assert scheduler.evicted(first.id)
                assert not scheduler.evicted(second.id)     # retained
                for never_issued in ("job-000003", "job-1", "job-0000001",
                                     "job-000000", "job--00001", "job-",
                                     "job-+00001", "job-00_001",
                                     "job- 00001", "job-00000²", "nope",
                                     "xyz-000001"):
                    assert not scheduler.evicted(never_issued), never_issued
            finally:
                await scheduler.shutdown()
        run(body())

    def test_gone_not_found_and_retained_over_http(self, tmp_path, bound):
        bound(2)
        with ServerThread(workers=1, store=tmp_path / "store",
                          pool=ThreadPoolExecutor(max_workers=1),
                          sim_fn=StubSim()) as srv:
            client = srv.client()
            ids = [client.run(CELL)["id"] for _ in range(3)]
            first, retained = ids[0], ids[-1]
            status, doc = client.request("GET", f"/jobs/{first}")
            assert status == 410
            assert "resubmit" in doc["error"]
            assert client.request("DELETE", f"/jobs/{first}")[0] == 410
            assert client.request("POST", f"/jobs/{first}/cancel")[0] == 410
            assert client.request("GET", "/jobs/job-999999")[0] == 404
            status, doc = client.request("GET", f"/jobs/{retained}")
            assert status == 200 and doc["state"] == "done"
            assert [job["id"] for job in client.jobs()] == ids[1:]
            metrics = client.metrics()["jobs"]
            assert metrics["evicted"] == 1 and metrics["done"] == 3


class TestListing:
    def test_jobs_list_in_submission_order(self):
        async def body():
            scheduler = await started(MemoryStore())
            ledger = Ledger(scheduler)
            app = ServeApp(scheduler)
            try:
                scheduler._job_seq = 999_998
                for _ in range(3):
                    await settle(ledger.submit())
                ledger.check()
                status, text, _type, _headers = app.route(
                    "GET", "/jobs", "", b"")
                assert status == 200
                assert [job["id"] for job in json.loads(text)["jobs"]] == \
                    ["job-999999", "job-1000000", "job-1000001"]
            finally:
                await scheduler.shutdown()
        run(body())


class TestResubmitOnGone:
    def test_cli_resubmits_within_its_retries(self, tmp_path, bound,
                                              capsys):
        # with no settled job kept, every poll of a settled job is 410
        from repro.cli import main

        bound(0)
        with ServerThread(workers=1, store=tmp_path / "store",
                          pool=ThreadPoolExecutor(max_workers=1),
                          sim_fn=StubSim()) as srv:
            code = main(["submit", "--port", str(srv.port), "cell", "MM",
                         "baseline", "--sms", "1", "--scale", "0.1",
                         "--wait"])
            submitted = srv.client().metrics()["jobs"]["submitted"]
        captured = capsys.readouterr()
        assert code == 2
        assert "410" in captured.err
        # the CLI's client retries 3 times: 4 submissions in all
        assert captured.out.count("submitted job-") == submitted == 4
