"""The loadtest driver: N concurrent clients, SLO-gated report.

``run_loadtest`` either targets an already-running service
(``host``/``port``) or self-hosts a
:class:`~repro.serve.scheduler.Scheduler` behind a
:class:`~repro.serve.server.ServerThread` — the latter is what
``repro loadtest``, the benchmark and the CI smoke job use, so one
process exercises the full stack: HTTP framing, admission control,
sharded fair queueing, process workers and the content-addressed
store.

Each client coroutine walks its slice of the deterministic zipfian
schedule and runs each request through
:meth:`~repro.serve.client.AsyncServeClient.run`: submit (with
retry/backoff, honouring 429 Retry-After), poll to completion on the
config's poll schedule, and submit again if the server evicted the job
before a poll saw it settle (410), within the same ``retries`` budget;
then record the end-to-end latency.  A poll answering any other error
fails the request at once.  Client start times ramp linearly over
``ramp_seconds``, and every client draws its keep-alive connections
from one shared :class:`~repro.serve.client.ConnectionPool` bounded by
``max_connections``, so "1000 clients" is a sustained closed-loop load
over reused connections rather than a connect storm.

Chaos option: ``kill_worker_after=N`` SIGKILLs one worker process
after N completed requests (self-hosted runs only) — the SLO gate then
doubles as a recovery test, since every request must still complete
via the scheduler's requeue-once path.
"""

from __future__ import annotations

import asyncio
import math
import os
import signal
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.loadtest.mix import MixConfig, build_population, build_schedule
from repro.serve.client import AsyncServeClient, ConnectionPool
from repro.utils import wallclock
from repro.utils.rng import DeterministicRng


@dataclass(frozen=True)
class SloConfig:
    """Service-level objectives the report is gated on (None = skip)."""

    p99_s: Optional[float] = None
    #: Floor on server-side ``cells.coalesced / cells.requested``.
    min_coalescing_rate: Optional[float] = None
    #: Ceiling on 429 responses per logical request (retries included).
    max_throttled_rate: Optional[float] = None
    max_failures: int = 0


@dataclass(frozen=True)
class LoadTestConfig:
    clients: int = 100
    requests_per_client: int = 1
    mix: MixConfig = MixConfig()
    slo: SloConfig = SloConfig()
    #: Self-hosted cluster shape (ignored when host/port target an
    #: external service).
    workers: int = 2
    store: Optional[str] = None
    engine: str = "reference"
    max_queued: int = 0
    rate: Optional[float] = None
    burst: Optional[float] = None
    #: External target; both set => no server is started.
    host: Optional[str] = None
    port: Optional[int] = None
    #: Client behaviour.
    retries: int = 8
    backoff_base: float = 0.1
    backoff_cap: float = 1.0
    ramp_seconds: float = 0.5
    max_connections: int = 256
    request_timeout: float = 120.0
    poll_initial: float = 0.05
    poll_factor: float = 1.5
    poll_max: float = 0.5
    #: Chaos: SIGKILL one worker after this many completed requests.
    kill_worker_after: Optional[int] = None


@dataclass
class LoadTestReport:
    """Everything the CLI prints, the benchmark commits and CI greps."""

    clients: int
    requests: int
    workers: int
    completed: int
    failed: int
    failures: List[str]
    throttled_responses: int
    transport_retries: int
    wall_s: float
    throughput_rps: float
    #: Latency percentiles; ``None`` when no request completed (an
    #: empty sample has no percentile — see :func:`percentile`).
    p50_s: Optional[float]
    p95_s: Optional[float]
    p99_s: Optional[float]
    max_s: Optional[float]
    coalescing_rate: float
    store_hit_rate: float
    hot_rate: float
    predict_answers: int
    cells_requeued: int
    worker_restarts: int
    worker_killed: bool
    cells: Dict[str, Any] = field(default_factory=dict)
    #: The server's HTTP counters (connections accepted, requests).
    http: Dict[str, Any] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    passed: bool = True

    def to_dict(self) -> Dict[str, Any]:
        doc = {
            "clients": self.clients,
            "requests": self.requests,
            "workers": self.workers,
            "completed": self.completed,
            "failed": self.failed,
            "throttled_responses": self.throttled_responses,
            "transport_retries": self.transport_retries,
            "wall_s": round(self.wall_s, 3),
            "throughput_rps": round(self.throughput_rps, 2),
            "latency_s": {
                "p50": None if self.p50_s is None else round(self.p50_s, 4),
                "p95": None if self.p95_s is None else round(self.p95_s, 4),
                "p99": None if self.p99_s is None else round(self.p99_s, 4),
                "max": None if self.max_s is None else round(self.max_s, 4),
            },
            "coalescing_rate": round(self.coalescing_rate, 4),
            "store_hit_rate": round(self.store_hit_rate, 4),
            "hot_rate": round(self.hot_rate, 4),
            "predict_answers": self.predict_answers,
            "cells_requeued": self.cells_requeued,
            "worker_restarts": self.worker_restarts,
            "worker_killed": self.worker_killed,
            "cells": dict(self.cells),
            "http": dict(self.http),
            "violations": list(self.violations),
            "passed": self.passed,
        }
        if self.failures:
            doc["failure_samples"] = self.failures[:10]
        return doc


def percentile(sorted_values: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile over pre-sorted values (q in [0, 1]).

    An empty sample has no percentile: returns ``None`` rather than a
    fabricated 0.0 (which once let an all-failed run sail under any
    p99 SLO).
    """
    if not sorted_values:
        return None
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[min(idx, len(sorted_values) - 1)]


def evaluate_slos(report: LoadTestReport, slo: SloConfig) -> List[str]:
    violations = []
    if report.requests > 0 and report.completed == 0:
        violations.append(
            f"no requests completed (0 of {report.requests})"
        )
    if report.failed > slo.max_failures:
        violations.append(
            f"failures {report.failed} > allowed {slo.max_failures}"
        )
    if slo.p99_s is not None and report.p99_s is not None \
            and report.p99_s > slo.p99_s:
        violations.append(
            f"p99 latency {report.p99_s:.3f}s > SLO {slo.p99_s:g}s"
        )
    if slo.min_coalescing_rate is not None \
            and report.coalescing_rate < slo.min_coalescing_rate:
        violations.append(
            f"coalescing rate {report.coalescing_rate:.3f} < "
            f"SLO {slo.min_coalescing_rate:g}"
        )
    if slo.max_throttled_rate is not None and report.requests > 0:
        rate = report.throttled_responses / report.requests
        if rate > slo.max_throttled_rate:
            violations.append(
                f"429 rate {rate:.3f} > SLO {slo.max_throttled_rate:g}"
            )
    return violations


def run_loadtest(config: LoadTestConfig) -> LoadTestReport:
    """Execute one load test; self-hosts a cluster unless targeted."""
    if config.host is not None and config.port is not None:
        return asyncio.run(
            _drive(config, config.host, config.port, scheduler=None))

    from repro.serve.server import ServerThread

    server = ServerThread(
        workers=config.workers,
        store=config.store,
        engine=config.engine,
        max_queued=config.max_queued,
        rate=config.rate,
        burst=config.burst,
    )
    with server:
        assert server.port is not None
        return asyncio.run(
            _drive(config, "127.0.0.1", server.port,
                   scheduler=server.scheduler))


def _kill_one_worker(scheduler: Any) -> bool:
    """SIGKILL the lowest-pid live worker process (chaos hook)."""
    pool = getattr(scheduler, "_pool", None)
    processes = getattr(pool, "_processes", None)
    if not processes:
        return False
    pid = sorted(processes)[0]
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        return False
    return True


async def _drive(config: LoadTestConfig, host: str, port: int,
                 scheduler: Any) -> LoadTestReport:
    total = config.clients * config.requests_per_client
    population = build_population(config.mix)
    schedule = build_schedule(config.mix, total)
    pool = ConnectionPool(host, port, max(1, config.max_connections))
    latencies: List[float] = []
    failures: List[str] = []
    clients: List[AsyncServeClient] = []
    state = {"completed": 0, "killed": False}

    async def run_client(index: int) -> None:
        client = AsyncServeClient(
            host, port, timeout=config.request_timeout,
            retries=config.retries, backoff_base=config.backoff_base,
            backoff_cap=config.backoff_cap,
            rng=DeterministicRng("loadtest-backoff", salt=index),
            pool=pool,
        )
        clients.append(client)
        if config.ramp_seconds > 0 and config.clients > 1:
            await asyncio.sleep(
                config.ramp_seconds * index / (config.clients - 1))
        for turn in range(config.requests_per_client):
            slot = index * config.requests_per_client + turn
            rank, predict = schedule[slot]
            body = dict(population[rank])
            body["client"] = f"client-{index:04d}"
            if predict:
                body["predict"] = True
            t0 = wallclock.perf()
            try:
                await client.run(body, timeout=config.request_timeout,
                                 poll_initial=config.poll_initial,
                                 poll_factor=config.poll_factor,
                                 poll_max=config.poll_max)
            except Exception as exc:
                failures.append(f"{type(exc).__name__}: {exc}")
                continue
            latencies.append(wallclock.perf() - t0)
            state["completed"] += 1
            if config.kill_worker_after is not None \
                    and not state["killed"] \
                    and scheduler is not None \
                    and state["completed"] >= config.kill_worker_after:
                state["killed"] = _kill_one_worker(scheduler)

    scrape = AsyncServeClient(host, port, timeout=30.0, retries=3)
    try:
        t_start = wallclock.perf()
        await asyncio.gather(*(run_client(i) for i in range(config.clients)))
        wall = max(1e-9, wallclock.perf() - t_start)
        _status, snapshot = await scrape.request("GET", "/metrics")
    finally:
        await pool.close()
        await scrape.aclose()
    cells: Dict[str, Any] = {}
    workers_doc: Dict[str, Any] = {}
    predict_doc: Dict[str, Any] = {}
    http_doc: Dict[str, Any] = {}
    if isinstance(snapshot, dict):
        cells = dict(snapshot.get("cells", {}))
        workers_doc = dict(snapshot.get("workers", {}))
        predict_doc = dict(snapshot.get("predict", {}))
        http_doc = dict(snapshot.get("http", {}))
    requested = max(1, int(cells.get("requested", 0)))

    latencies.sort()
    report = LoadTestReport(
        clients=config.clients,
        requests=total,
        workers=config.workers,
        completed=state["completed"],
        failed=len(failures),
        failures=failures,
        throttled_responses=sum(c.throttled for c in clients),
        transport_retries=sum(c.transport_errors for c in clients),
        wall_s=wall,
        throughput_rps=state["completed"] / wall,
        p50_s=percentile(latencies, 0.50),
        p95_s=percentile(latencies, 0.95),
        p99_s=percentile(latencies, 0.99),
        max_s=latencies[-1] if latencies else None,
        coalescing_rate=int(cells.get("coalesced", 0)) / requested,
        store_hit_rate=int(cells.get("store_hits", 0)) / requested,
        hot_rate=(int(cells.get("coalesced", 0))
                  + int(cells.get("store_hits", 0))) / requested,
        predict_answers=int(predict_doc.get("answers_total", 0)),
        cells_requeued=int(cells.get("requeued", 0)),
        worker_restarts=int(workers_doc.get("restarts_total", 0)),
        worker_killed=bool(state["killed"]),
        cells=cells,
        http=http_doc,
    )
    report.violations = evaluate_slos(report, config.slo)
    report.passed = not report.violations
    return report
