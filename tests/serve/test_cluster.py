"""Scheduler admission, fairness and crash recovery.

Same stub-driven style as ``test_scheduler.py`` — the simulation
function is injected on a thread pool, so token buckets, fair-queueing
order and the ``BrokenExecutor`` recovery path are all observed with
exact counters and no real processes.  The HTTP mappings (429 +
``Retry-After``, 413) run against a real :class:`ServerThread` at the
end.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from typing import List, Tuple

import pytest

from repro.cache.l1d import L1DStats
from repro.experiments.store import MemoryStore
from repro.gpu.simulator import SimResult
from repro.serve.client import AsyncServeClient, ServeClient
from repro.serve.protocol import (
    ProtocolError,
    cell_request,
    parse_job_request,
    sweep_request,
)
from repro.serve.scheduler import (
    JobTooLargeError,
    QueueFullError,
    RateLimitedError,
    Scheduler,
    TokenBucket,
    shard_of,
)
from repro.serve.server import ServerThread


def payload_for(cell) -> dict:
    return SimResult(
        cycles=1000 + cell.seed, thread_insns=10, warp_insns=5,
        l1d=L1DStats(), interconnect={}, l2={}, dram={}, policy={},
    ).to_dict()


class StubSim:
    """Records (abbr, seed) per execution; optionally gated."""

    def __init__(self, gate: threading.Event = None):
        self.calls: List[Tuple[str, int]] = []
        self._lock = threading.Lock()
        self.gate = gate

    def __call__(self, cell):
        if self.gate is not None:
            assert self.gate.wait(timeout=30), "stub gate never released"
        with self._lock:
            self.calls.append((cell.abbr, cell.seed))
        return payload_for(cell)


class FakeClock:
    def __init__(self, start: float = 100.0):
        self.t = start

    def __call__(self) -> float:
        return self.t


def cell(seed: int, client: str = None) -> dict:
    return cell_request("MM", "baseline", sms=1, scale=0.1, seed=seed,
                        client=client)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


async def make_cluster(workers=1, sim_fn=None, **kwargs):
    scheduler = Scheduler(
        store=MemoryStore(),
        workers=workers,
        pool=kwargs.pop("pool", None) if "pool" in kwargs
        else ThreadPoolExecutor(max_workers=workers),
        sim_fn=sim_fn if sim_fn is not None else StubSim(),
        **kwargs,
    )
    await scheduler.start()
    return scheduler


async def settle(job):
    while not job.done:
        await asyncio.sleep(0.005)
    return job


async def until(predicate, timeout: float = 30.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, \
            "condition never became true"
        await asyncio.sleep(0.005)


class TestShardOf:
    def test_single_shard_is_always_zero(self):
        assert shard_of("ff" * 32, 1) == 0

    def test_deterministic_and_in_range(self):
        import hashlib
        keys = [hashlib.sha256(str(i).encode()).hexdigest()
                for i in range(64)]
        for shards in (2, 3, 4, 7):
            placed = [shard_of(k, shards) for k in keys]
            assert placed == [shard_of(k, shards) for k in keys]
            assert all(0 <= s < shards for s in placed)
            # 64 spread keys must not all collapse onto one shard
            assert len(set(placed)) > 1

    def test_same_cell_same_shard_across_submissions(self):
        key = parse_job_request(cell(7)).units[0].key()
        again = parse_job_request(cell(7)).units[0].key()
        assert shard_of(key, 4) == shard_of(again, 4)


class TestTokenBucket:
    def test_burst_then_deny(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.take() and bucket.take()
        assert not bucket.take()

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        assert bucket.take(2.0)
        clock.t += 0.5                       # 1 token back
        assert bucket.take(1.0)
        assert not bucket.take(1.0)

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        clock.t += 1000.0
        assert bucket.take(3.0)
        assert not bucket.take(0.5)

    def test_wait_time_is_deficit_over_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.take(1.0)
        assert bucket.wait_time(1.0) == pytest.approx(0.5)
        assert bucket.wait_time(0.0) == 0.0

    def test_failed_take_does_not_debit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=clock)
        assert not bucket.take(5.0)
        assert bucket.take(1.0)              # the single token survived


class TestQueueAdmission:
    def test_full_queue_rejects_with_retry_hint(self):
        async def body():
            gate = threading.Event()
            scheduler = await make_cluster(sim_fn=StubSim(gate=gate),
                                           max_queued=2)
            try:
                held = scheduler.submit(parse_job_request(cell(1)))
                await until(lambda: scheduler.running_count() == 1)
                queued = [scheduler.submit(parse_job_request(cell(s)))
                          for s in (2, 3)]
                await until(lambda: scheduler.queue_depth() == 2)
                with pytest.raises(QueueFullError) as excinfo:
                    scheduler.submit(parse_job_request(cell(4)))
                assert excinfo.value.retry_after > 0
                assert scheduler.metrics.jobs_throttled_queue == 1
                gate.set()
                for job in [held] + queued:
                    assert (await settle(job)).state == "done"
            finally:
                await scheduler.shutdown()
        run(body())

    def test_multi_cell_job_counts_all_its_cells(self):
        async def body():
            gate = threading.Event()
            scheduler = await make_cluster(sim_fn=StubSim(gate=gate),
                                           max_queued=2)
            try:
                held = scheduler.submit(parse_job_request(cell(1)))
                await until(lambda: scheduler.running_count() == 1)
                # 4 cells > bound of 2, even though the queue is empty:
                # no wait could admit it, so it is refused for good
                with pytest.raises(JobTooLargeError,
                                   match="4 cells.*max_queued is 2"):
                    scheduler.submit(parse_job_request(sweep_request(
                        ["MM", "HS"], ["baseline", "dlp"], sms=1, scale=0.1
                    )))
                assert scheduler.metrics.jobs_throttled_queue == 0
                gate.set()
                await settle(held)
            finally:
                await scheduler.shutdown()
        run(body())

    def test_unbounded_by_default(self):
        async def body():
            scheduler = await make_cluster()
            try:
                jobs = [scheduler.submit(parse_job_request(cell(s)))
                        for s in range(20)]
                for job in jobs:
                    assert (await settle(job)).state == "done"
            finally:
                await scheduler.shutdown()
        run(body())


class TestRateLimiting:
    def test_bucket_exhaustion_rejects_then_refills(self):
        async def body():
            clock = FakeClock()
            scheduler = await make_cluster(rate=1.0, burst=2.0, clock=clock)
            try:
                a = scheduler.submit(parse_job_request(cell(1, "alice")))
                b = scheduler.submit(parse_job_request(cell(2, "alice")))
                with pytest.raises(RateLimitedError) as excinfo:
                    scheduler.submit(parse_job_request(cell(3, "alice")))
                assert excinfo.value.retry_after == pytest.approx(1.0)
                assert scheduler.metrics.jobs_throttled_rate == 1
                clock.t += 1.0               # one token back
                c = scheduler.submit(parse_job_request(cell(3, "alice")))
                for job in (a, b, c):
                    assert (await settle(job)).state == "done"
            finally:
                await scheduler.shutdown()
        run(body())

    def test_job_larger_than_burst_is_refused_for_good(self):
        async def body():
            clock = FakeClock()
            scheduler = await make_cluster(rate=1.0, burst=2.0, clock=clock)
            try:
                # 4 cells > burst 2 with the bucket full: no refill helps
                with pytest.raises(JobTooLargeError,
                                   match="4 cells.*burst is 2"):
                    scheduler.submit(parse_job_request(sweep_request(
                        ["MM", "HS"], ["baseline", "dlp"], sms=1,
                        scale=0.1, client="alice")))
                assert scheduler.metrics.jobs_throttled_rate == 0
                # the refusal took no tokens: a full burst still fits
                job = scheduler.submit(parse_job_request(sweep_request(
                    ["MM"], ["baseline", "dlp"], sms=1, scale=0.1,
                    client="alice")))
                assert (await settle(job)).state == "done"
            finally:
                await scheduler.shutdown()
        run(body())

    def test_buckets_are_per_client(self):
        async def body():
            clock = FakeClock()
            scheduler = await make_cluster(rate=1.0, burst=1.0, clock=clock)
            try:
                a = scheduler.submit(parse_job_request(cell(1, "alice")))
                with pytest.raises(RateLimitedError):
                    scheduler.submit(parse_job_request(cell(2, "alice")))
                # bob has his own untouched bucket
                b = scheduler.submit(parse_job_request(cell(3, "bob")))
                for job in (a, b):
                    assert (await settle(job)).state == "done"
            finally:
                await scheduler.shutdown()
        run(body())


class TestFairQueueing:
    def test_interactive_client_not_starved_by_flood(self):
        """The starvation bound: after a 6-cell flood from one client,
        a second client's first cell is served within 2 dequeues of the
        flood's in-flight cell — not after the whole flood (FIFO)."""
        async def body():
            gate = threading.Event()
            sim = StubSim(gate=gate)
            scheduler = await make_cluster(sim_fn=sim)
            try:
                flood = [scheduler.submit(parse_job_request(
                    cell(s, "flood"))) for s in range(1, 7)]
                # first flood cell in flight, five queued behind it
                await until(lambda: scheduler.running_count() == 1
                            and scheduler.queue_depth() == 5)
                alice = scheduler.submit(parse_job_request(cell(99, "alice")))
                await until(lambda: scheduler.queue_depth() == 6)
                gate.set()
                await settle(alice)
                for job in flood:
                    await settle(job)
                served = [seed for _abbr, seed in sim.calls]
                # FIFO would put alice last (index 6); her virtual
                # finish tag sorts just after the flood's second cell
                assert served.index(99) <= 2, served
            finally:
                await scheduler.shutdown()
        run(body())


class CrashingSim:
    """Raises BrokenExecutor the first ``crashes`` times per cell."""

    def __init__(self, crashes: int = 1, barrier: threading.Barrier = None):
        self.crashes = crashes
        self.barrier = barrier
        self.failures: dict = {}
        self.completed: List[int] = []
        self._lock = threading.Lock()

    def __call__(self, cell):
        with self._lock:
            failed = self.failures.get(cell.seed, 0)
            crash = failed < self.crashes
            if crash:
                self.failures[cell.seed] = failed + 1
        if crash:
            if self.barrier is not None:
                self.barrier.wait(timeout=30)
            raise BrokenExecutor("worker process died")
        with self._lock:
            self.completed.append(cell.seed)
        return payload_for(cell)


class TestCrashRecovery:
    def test_crashed_cell_restarts_pool_and_requeues_once(self):
        async def body():
            sim = CrashingSim(crashes=1)
            scheduler = await make_cluster(
                sim_fn=sim, pool=None,
                pool_factory=lambda: ThreadPoolExecutor(max_workers=1),
            )
            try:
                job = await settle(scheduler.submit(parse_job_request(
                    cell(1))))
                assert job.state == "done"
                assert scheduler.metrics.worker_restarts == 1
                assert scheduler.metrics.cells_requeued == 1
                assert sim.completed == [1]
                assert scheduler._pool_gen == 1
            finally:
                await scheduler.shutdown()
        run(body())

    def test_requeue_limit_exhaustion_surfaces_the_failure(self):
        async def body():
            sim = CrashingSim(crashes=99)         # never recovers
            scheduler = await make_cluster(
                sim_fn=sim, pool=None,
                pool_factory=lambda: ThreadPoolExecutor(max_workers=1),
            )
            try:
                job = await settle(scheduler.submit(parse_job_request(
                    cell(1))))
                assert job.state == "failed"
                assert "worker process died" in job.error["error"]
                assert scheduler.metrics.cells_requeued == 1
                assert scheduler.metrics.cells_failed == 1
            finally:
                await scheduler.shutdown()
        run(body())

    def test_concurrent_failures_restart_the_pool_once(self):
        """A dying worker breaks every in-flight future at the same
        generation; only the first failure may rebuild the pool."""
        def shard_spread_bodies(shards: int) -> List[dict]:
            found = {}
            seed = 0
            while len(found) < shards:
                seed += 1
                body = cell(seed)
                key = parse_job_request(body).units[0].key()
                found.setdefault(shard_of(key, shards), body)
            return [found[i] for i in range(shards)]

        async def body():
            barrier = threading.Barrier(2)
            sim = CrashingSim(crashes=1, barrier=barrier)
            scheduler = await make_cluster(
                workers=2, sim_fn=sim, pool=None,
                pool_factory=lambda: ThreadPoolExecutor(max_workers=2),
            )
            try:
                jobs = [scheduler.submit(parse_job_request(b))
                        for b in shard_spread_bodies(2)]
                for job in jobs:
                    assert (await settle(job)).state == "done"
                assert scheduler.metrics.worker_restarts == 1
                assert scheduler.metrics.cells_requeued == 2
            finally:
                await scheduler.shutdown()
        run(body())


class TestClientField:
    def test_default_is_anonymous(self):
        assert parse_job_request(cell(1)).client == "anonymous"

    def test_explicit_client_round_trips(self):
        request = parse_job_request(cell(1, client="alice"))
        assert request.client == "alice"

    @pytest.mark.parametrize("bad", ["", "   ", 42, "x" * 65])
    def test_invalid_client_is_rejected(self, bad):
        body = cell(1)
        body["client"] = bad
        with pytest.raises(ProtocolError):
            parse_job_request(body)


class TestHttp429:
    def test_queue_full_maps_to_429_with_retry_after(self, tmp_path):
        gate = threading.Event()
        sim = StubSim(gate=gate)
        with ServerThread(workers=1, store=tmp_path / "store",
                          pool=ThreadPoolExecutor(max_workers=1),
                          sim_fn=sim, max_queued=1) as srv:
            client = srv.client()
            client.submit(cell(1))
            deadline = threading.Event()
            for _ in range(400):
                if srv.scheduler.running_count() == 1:
                    break
                deadline.wait(0.01)
            client.submit(cell(2))               # fills the queue bound
            for _ in range(400):
                if srv.scheduler.queue_depth() == 1:
                    break
                deadline.wait(0.01)

            async def raw_submit():
                raw = AsyncServeClient("127.0.0.1", srv.port, retries=0)
                try:
                    return await raw._exchange("POST", "/jobs", cell(3))
                finally:
                    await raw.aclose()

            status, body, retry_after = asyncio.run(raw_submit())
            assert status == 429
            assert "queue full" in body["error"]
            assert retry_after is not None and retry_after > 0

            # a retrying client rides out the backpressure window
            retrier = ServeClient("127.0.0.1", srv.port, retries=40,
                                  backoff_base=0.01, backoff_cap=0.05)
            outcome = {}

            def resubmit():
                outcome["status"], outcome["doc"] = retrier.request(
                    "POST", "/jobs", cell(3))

            thread = threading.Thread(target=resubmit)
            thread.start()
            for _ in range(400):                 # first attempt sees 429
                if retrier.throttled >= 1:
                    break
                deadline.wait(0.01)
            assert retrier.throttled >= 1
            gate.set()
            thread.join(timeout=30)
            assert outcome["status"] == 200
            ServeClient("127.0.0.1", srv.port).wait(outcome["doc"]["id"])
            metrics = client.metrics()
            assert metrics["jobs"]["throttled_queue"] >= 1
            assert metrics["workers"]["restarts_total"] == 0


class TestHttp413:
    def test_job_over_queue_bound_maps_to_413_and_is_not_retried(
            self, tmp_path):
        with ServerThread(workers=1, store=tmp_path / "store",
                          pool=ThreadPoolExecutor(max_workers=1),
                          sim_fn=StubSim(), max_queued=2) as srv:
            retrier = ServeClient("127.0.0.1", srv.port, retries=5,
                                  backoff_base=0.01, backoff_cap=0.05)
            status, body = retrier.request("POST", "/jobs", sweep_request(
                ["MM", "HS"], ["baseline", "dlp"], sms=1, scale=0.1))
            assert status == 413
            assert "4 cells" in body["error"]
            assert "max_queued is 2" in body["error"]
            assert retrier.throttled == 0
            metrics = srv.client().metrics()
            assert metrics["jobs"]["throttled_queue"] == 0
            assert metrics["jobs"]["submitted"] == 0


class TestBenchmarkNames:
    def test_cluster_alias_and_submit_patch_target(self):
        """perfbench imports ``repro.serve.cluster.ClusterScheduler`` and
        its tracer patches ``Scheduler.submit`` through the class
        ``__dict__``; both must keep resolving."""
        from repro.serve.cluster import ClusterScheduler

        assert ClusterScheduler is Scheduler
        assert "submit" in Scheduler.__dict__

    def test_loadtest_client_names(self):
        """perfbench imports ``AsyncServeClient`` and ``LoadClientError``
        from ``repro.loadtest.client`` and catches the latter around each
        request; its tracer patches ``AsyncServeClient.request`` through
        the class ``__dict__``."""
        from repro.loadtest.client import AsyncServeClient as named
        from repro.loadtest.client import LoadClientError

        assert named is AsyncServeClient
        assert "request" in AsyncServeClient.__dict__

        async def unreachable():
            client = AsyncServeClient("127.0.0.1", 1, retries=0)
            try:
                await client.request("GET", "/healthz")
            finally:
                await client.aclose()

        with pytest.raises(LoadClientError, match="cannot reach"):
            asyncio.run(unreachable())
