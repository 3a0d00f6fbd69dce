"""The service core: sharded fair scheduling with request coalescing.

One :class:`Scheduler` owns a result store, a bounded
``ProcessPoolExecutor`` and one admission queue per worker.  The
resolution path for every unit of every job:

1. **Coalesce** — if an identical cell (same content address) is
   already in flight, attach to its future; N concurrent submissions
   of a cold cell cost exactly one simulation.
2. **Store** — a warm cell is served straight from the result store
   (sub-millisecond, no queue, no worker).  A repeat costs one
   ``os.stat``: while the entry's version
   (:meth:`~repro.experiments.store.ResultStore.entry_version`) still
   matches the payload last built for it, every job gets that same
   dict back, with no read or parse.  A job whose every unit is such a
   repeat, and none in flight, settles inside :meth:`Scheduler.submit`:
   no job task, no unit task, and its POST already answers ``done``.
   A rewritten, replaced, pruned, cleared or torn entry has another
   version, or none, and goes through ``store.get`` as a first request
   does, on the job's task.
3. **Queue** — a cold cell is enqueued on its shard with its job's
   priority.  Interactive (single-cell) jobs sort ahead of bulk sweep
   cells, so a user poking at one configuration is not stuck behind a
   40-cell sweep.  Admission priority only — a cell already on a
   worker runs to completion.

**Sharding.**  Each cold cell goes to the worker its content address
picks (:func:`shard_of` over the fingerprint hash).  The mapping is
deterministic, so two submissions of the same cell always land on the
same shard and the coalescing map stays the only dedup point; the
content-addressed store remains the cross-worker coordination point
(atomic ``put`` under an unchanged key).  There is deliberately no
work stealing: a cell's shard is a pure function of its identity,
which keeps bulk-sweep placement reproducible and lets every worker's
predictor/trace caches stay hot for "its" cells.

**Weighted fair queueing.**  Within a priority class, each shard orders
cells by start-time fair queueing over the submitting client: a cell's
virtual finish tag is ``max(vtime, client's last finish) + 1/weight``.
A bulk client flooding 500 cells cannot starve an interactive client —
the interactive cell's tag sorts just after the flood's *first* cell,
not after all 500.  Priority still dominates (interactive < bulk <
refine); fairness breaks ties inside a class, arrival order the rest.

**Admission control.**  A bound on queued cells (``max_queued``) and an
optional per-client token bucket (``rate`` cells/sec, ``burst``
capacity).  A job that fits the limits but not the current backlog or
bucket gets a :class:`RetryableError` with a concrete ``retry_after``
hint (HTTP ``429 Too Many Requests`` + ``Retry-After``).  A job with
more cells than ``max_queued`` or than its client's ``burst`` could
never be admitted, so it gets :class:`JobTooLargeError` (HTTP 413)
instead.  Draining (503) wins over both.

**Crash recovery.**  A worker process dying breaks the whole
``ProcessPoolExecutor``; every in-flight future fails with
``BrokenExecutor`` at once.  The first failure of a pool generation
replaces the pool (``workers.restarts_total``), and each failed cell is
requeued once (``cells.requeued``) at its original priority.  A cell
that fails again after a restart settles as a normal unit failure.

Jobs submitted with ``predict: true`` take the tier-0 path instead: a
warm cell is still served exact from the store, but a cold cell gets an
instant analytical answer (flagged ``tier: "analytical"`` with error
bars) and a background refinement is enqueued at the lowest priority.
The refinement runs the normal exact pipeline — same worker entry
point, same ``store.put`` under the unchanged content address — so the
exact result supersedes the analytical one for every later request.
Analytical answers are never persisted, and refinements are best-effort:
queued ones are dropped at drain.

**One cell per configuration.**  ``submit`` swaps each unit for the
one :class:`Cell` instance the scheduler keeps for its configuration,
so a cell's content address is computed once, not once per request.

**Bounded job table.**  ``jobs`` holds every active job and the
:data:`RETAINED_JOBS` most recently settled ones, in submission order.
Every job settles exactly once, through :meth:`Scheduler._retire`
(at admission, at the end of its task, or when cancelled before its
task started), which evicts the oldest settled job past the bound.
Job ids carry a sequence number, so an id this scheduler issued but
no longer holds is told apart from an unknown one with nothing kept
per evicted job (:meth:`Scheduler.evicted`; HTTP 410).

Every scheduling decision increments a counter or observes a histogram
on :class:`~repro.serve.metrics.ServeMetrics`, so the acceptance tests
assert "N submissions, 1 simulation" on counters, never wall clock.

The scheduler is pure asyncio (single event loop); the only threads are
the executor's worker processes.  State mutations happen between
awaits, so the coalescing map needs no locks.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import operator
import weakref
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor
from pathlib import Path
from typing import (
    Any, Callable, Deque, Dict, List, Mapping, Optional, Tuple, Union,
)

from repro.experiments.executor import (
    MODE_REPLAY,
    Cell,
    CellExecutionError,
    simulate_cell,
)
from repro.experiments.store import MemoryStore
from repro.gpu.simulator import SimResult
from repro.serve import jobs as jobstates
from repro.serve.jobs import Job, predict_unit, replay_unit
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import PRIORITY_REFINE, JobRequest
from repro.utils import wallclock


#: How many settled jobs ``Scheduler.jobs`` keeps; older settled jobs
#: are evicted and their ids answer 410.  Sized from the clients: at about
#: 1,850 warm jobs/s, 1,024 later jobs take about 0.55 s to settle,
#: longer than the loadtest's 0.5 s poll ceiling and ``ServeClient``'s
#: 50 ms, and the table then holds at most about 1.3 MB.
RETAINED_JOBS = 1024


def _job_id(seq: int) -> str:
    return f"job-{seq:06d}"


class DrainingError(RuntimeError):
    """Submission refused: the service is draining (HTTP 503)."""


class RetryableError(RuntimeError):
    """Submission refused temporarily (HTTP 429 + Retry-After)."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        #: Seconds the client should back off before resubmitting.
        self.retry_after = max(0.0, float(retry_after))


class QueueFullError(RetryableError):
    """The bounded admission queue cannot take this job's cells."""


class RateLimitedError(RetryableError):
    """The submitting client exhausted its token bucket."""


class JobTooLargeError(RuntimeError):
    """Submission refused for good (HTTP 413): the job has more cells
    than ``max_queued`` or than its client's ``burst``, so admission
    would refuse it however long the client waited."""


def shard_of(key: str, shards: int) -> int:
    """Deterministic shard for a content address (hex digest string).

    Uses the leading 64 bits of the key itself — the key is already a
    SHA-256 over the cell's canonical fingerprint, so no extra hashing
    (and no process-seeded ``hash()``) is needed for uniformity.
    """
    if shards <= 1:
        return 0
    return int(key[:16], 16) % shards


class TokenBucket:
    """Classic token bucket; refilled lazily from an injectable clock."""

    __slots__ = ("rate", "burst", "_tokens", "_updated", "_clock")

    def __init__(self, rate: float, burst: Optional[float] = None,
                 clock: Callable[[], float] = wallclock.monotonic) -> None:
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None \
            else max(1.0, self.rate)
        self._tokens = self.burst
        self._clock = clock
        self._updated = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._updated) * self.rate
        )
        self._updated = now

    def take(self, tokens: float = 1.0) -> bool:
        """Consume ``tokens`` if available; False (and no debit) if not."""
        self._refill()
        if self._tokens + 1e-12 >= tokens:
            self._tokens -= tokens
            return True
        return False

    def wait_time(self, tokens: float = 1.0) -> float:
        """Seconds until ``take(tokens)`` could succeed."""
        self._refill()
        deficit = tokens - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


#: The fields ``Cell`` compares on, as one tuple (``_key`` only caches
#: the key they determine).
_cell_fields = operator.attrgetter(
    *(f.name for f in dataclasses.fields(Cell) if f.compare))


def _configuration(unit: Cell) -> Tuple[Any, ...]:
    """``unit``'s configuration as a table key that does not hold the
    cell.  ``Cell`` equality takes ``True`` for ``1``, but the store key
    spells a knob value as given, so the knob values' types are part of
    it: ``{"bypass_enabled": 1}`` and ``true`` stay two entries.  (The
    protocol gives every other field one type.)"""
    return (_cell_fields(unit),
            tuple(type(value) for _, value in unit.policy_kwargs))


class _SharedPayload(Dict[str, Any]):
    """One store entry's serialized result, shared by every job served
    from that entry version.  A ``dict`` subclass only so the payload
    table can hold it weakly; nothing may mutate it."""

    __slots__ = ("version", "__weakref__")
    #: The store's :meth:`entry_version` the payload was read under.
    version: Any


class _ExactAnswer(Dict[str, Any]):
    """A ``predict: true`` unit's answer from the store: a copy of the
    shared payload flagged ``tier: "exact"``.  It holds the shared
    payload, so the payload table keeps that while the job lives and a
    predict repeat settles at admission like a plain one."""

    __slots__ = ("shared",)
    shared: _SharedPayload


class _CellEntry:
    """One in-flight cell execution, shared by all coalesced waiters."""

    __slots__ = ("key", "cell", "future", "subscribers", "enqueued_at",
                 "started", "abandoned", "predicted_at", "client",
                 "priority", "requeues", "pool_gen")

    def __init__(self, key: str, cell: Cell,
                 future: "asyncio.Future[Dict[str, Any]]",
                 priority: int, client: str) -> None:
        self.key = key
        self.cell = cell
        self.future = future
        self.subscribers = 1
        self.enqueued_at = wallclock.monotonic()
        self.started = False
        self.abandoned = False      # every waiter cancelled before start
        #: When an analytical answer was returned for this cell (tier-0)
        #: — the exact result's arrival closes the supersede histogram.
        self.predicted_at: Optional[float] = None
        #: Admission priority and submitting client (the fair-queueing
        #: tag), kept so a cell requeued after a crash re-enters its
        #: shard exactly where it would have been.
        self.priority = priority
        self.client = client
        #: Crash-recovery bookkeeping: how many times this cell went
        #: back in the queue, and which pool generation ran it last.
        self.requeues = 0
        self.pool_gen = 0


class Scheduler:
    """Job admission, coalescing, sharded fair queueing and the pumps.

    Parameters
    ----------
    store:
        Result store (``MemoryStore`` default; pass a ``ResultStore``
        for warm restarts and cross-process sharing).
    workers:
        Worker processes — also the number of concurrent executions
        and of shard queues.
    trace_dir:
        Shared trace directory for replay units (record-once).
    engine:
        L1D implementation the workers run (``reference`` or ``fast``),
        stamped on each cell it executes (:meth:`Cell.cell`).  A
        deployment-wide choice, never part of a cell's content address
        — the engines are bit-identical, so cells computed by either
        resolve (and warm) the same store entries.
    pool / sim_fn / replay_fn / predict_fn:
        Injection points for tests: a ``ThreadPoolExecutor`` plus stub
        work functions turn scheduling tests into fast, deterministic
        unit tests with no real simulations.

    Keyword-only:

    max_queued:
        Bound on queued (not yet started) cells across all shards.
        A submission whose cells would exceed it raises
        :class:`QueueFullError`, or :class:`JobTooLargeError` when the
        job alone exceeds it.  0 (default) disables the bound.
    rate / burst:
        Per-client token bucket: ``rate`` cells per second with a
        ``burst`` ceiling (defaults to ``max(1, rate)``).  ``None``
        (default) disables rate limiting.
    client_weights / default_weight:
        Fair-queueing weights; a client with weight 2 gets twice the
        scheduling share of a weight-1 client within a priority class.
    requeue_limit:
        How many times a cell may be requeued after worker crashes
        before its failure is surfaced (default 1, per the drop-once
        recovery contract).
    pool_factory:
        Builds replacement executors after a crash (and the initial
        one, when no ``pool`` was injected).  Defaults to a
        ``ProcessPoolExecutor`` sized to ``workers``.
    clock:
        Monotonic time source for the token buckets (tests inject a
        fake to make refill deterministic).
    """

    def __init__(self, store: Any = None, workers: int = 2,
                 trace_dir: Optional[Union[str, Path]] = None,
                 metrics: Optional[ServeMetrics] = None,
                 engine: str = "reference",
                 pool: Optional[Executor] = None,
                 sim_fn: Callable[[Cell], Dict[str, Any]] = simulate_cell,
                 replay_fn: Callable[
                     [Cell, Optional[str]], Dict[str, Any]
                 ] = replay_unit,
                 predict_fn: Callable[
                     [Cell, Optional[str]], Dict[str, Any]
                 ] = predict_unit,
                 *, max_queued: int = 0,
                 rate: Optional[float] = None,
                 burst: Optional[float] = None,
                 client_weights: Optional[Mapping[str, float]] = None,
                 default_weight: float = 1.0,
                 requeue_limit: int = 1,
                 pool_factory: Optional[Callable[[], Executor]] = None,
                 clock: Callable[[], float] = wallclock.monotonic) -> None:
        self.store = store if store is not None else MemoryStore()
        self.workers = max(1, int(workers))
        self.trace_dir = str(trace_dir) if trace_dir is not None else None
        self.engine = engine
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self._sim_fn = sim_fn
        self._replay_fn = replay_fn
        self._predict_fn = predict_fn
        self._pool = pool
        self._owns_pool = pool is None
        self._pool_factory = pool_factory
        self.max_queued = max(0, int(max_queued))
        self.rate = rate if rate is None else float(rate)
        self.burst = burst if burst is None else float(burst)
        self.requeue_limit = max(0, int(requeue_limit))
        self._weights: Dict[str, float] = dict(client_weights or {})
        self._default_weight = max(1e-9, float(default_weight))
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        #: Per shard: its queue, its fair-queueing virtual time, and
        #: each client's last virtual finish tag.
        self._queues: List["asyncio.PriorityQueue[Any]"] = []
        self._vtime: List[float] = []
        self._finish: List[Dict[str, float]] = []
        self._pumps: List[asyncio.Task] = []
        self._in_flight: Dict[str, _CellEntry] = {}
        #: Per cell key, the payload last built from its store entry.
        #: Weak values: it holds no payload that no job holds.
        self._payloads: "weakref.WeakValueDictionary[str, _SharedPayload]" \
            = weakref.WeakValueDictionary()
        #: Per configuration, the one cell that answers for it, so its
        #: key is computed once.  Weak values, like ``_payloads``: it
        #: holds no cell that no job holds.
        self._cells: "weakref.WeakValueDictionary[Tuple[Any, ...], Cell]" \
            = weakref.WeakValueDictionary()
        #: Every active job and the most recently settled ones, in
        #: submission order.
        self.jobs: Dict[str, Job] = {}
        #: Ids of the settled jobs still in ``jobs``, oldest first.
        self._settled: Deque[str] = collections.deque()
        #: Jobs not yet settled (``active_jobs``).
        self._jobs_active = 0
        self._job_seq = 0
        self._queue_seq = 0
        #: Bumped each time the worker pool is replaced after a crash;
        #: entries record the generation that ran them so one broken
        #: pool triggers exactly one restart.
        self._pool_gen = 0
        self.draining = False
        self.started_at = wallclock.monotonic()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        if self._pool is None:
            self._pool = self._new_pool()
        self._queues = [asyncio.PriorityQueue() for _ in range(self.workers)]
        self._vtime = [0.0] * self.workers
        self._finish = [{} for _ in range(self.workers)]
        self._pumps = [
            asyncio.create_task(self._pump(i), name=f"serve-pump-{i}")
            for i in range(self.workers)
        ]

    def _new_pool(self) -> Executor:
        if self._pool_factory is not None:
            return self._pool_factory()
        return ProcessPoolExecutor(max_workers=self.workers)

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, let active jobs finish, stop the pumps.

        Returns True if every job settled within ``timeout``.
        """
        self.draining = True
        pending = [
            job.task for job in self.jobs.values()
            if job.task is not None and not job.task.done()
        ]
        clean = True
        if pending:
            done, not_done = await asyncio.wait(pending, timeout=timeout)
            clean = not not_done
            for task in not_done:
                task.cancel()
            if not_done:
                await asyncio.gather(*not_done, return_exceptions=True)
        await self._stop_pumps()
        return clean

    async def shutdown(self) -> None:
        """Immediate teardown (tests): cancel everything, free the pool."""
        self.draining = True
        for job in self.jobs.values():
            if job.task is not None and not job.task.done():
                job.task.cancel()
        await asyncio.gather(
            *(j.task for j in self.jobs.values() if j.task is not None),
            return_exceptions=True,
        )
        await self._stop_pumps()

    async def _stop_pumps(self) -> None:
        for pump in self._pumps:
            pump.cancel()
        await asyncio.gather(*self._pumps, return_exceptions=True)
        self._pumps = []
        if self._owns_pool and self._pool is not None:
            # repro-check: allow(R009) final pool join during shutdown:
            # the pumps are cancelled and no client work remains, so
            # blocking the loop here is the intended drain barrier
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- admission -----------------------------------------------------

    def submit(self, request: JobRequest) -> Job:
        """Admit one job (sync, no awaits): settle it here when every
        unit is a current store hit, else start the task that runs it.

        Raises :class:`DrainingError` (503), :class:`JobTooLargeError`
        (413) or a :class:`RetryableError` (429), in that precedence.
        """
        if self.draining:
            self.metrics.jobs_rejected += 1
            raise DrainingError("service is draining; not accepting jobs")
        self._admit(request)
        request.units = [self._cells.setdefault(_configuration(unit), unit)
                         for unit in request.units]
        hits = self._current_hits(request.units)
        self._job_seq += 1
        job = Job(id=_job_id(self._job_seq), request=request)
        self.jobs[job.id] = job
        self._jobs_active += 1
        self.metrics.jobs_submitted += 1
        if hits is not None:
            self.metrics.cells_requested += len(hits)
            self.store.stats.hits += len(hits)
            self._done(job, [self._hit(shared, request.predict)
                             for shared in hits])
            self._retire(job)
        else:
            job.task = asyncio.create_task(self._run_job(job), name=job.id)
        return job

    def _current_hits(self, units: List[Cell],
                      ) -> Optional[List[_SharedPayload]]:
        """Each unit's shared payload, when every unit has one at its
        entry's current version and none is in flight; else ``None``,
        and the job's task resolves its units (a coalesced waiter, a
        first read or a miss is counted there, once)."""
        hits = []
        for unit in units:
            key = unit.key()
            if key in self._in_flight:
                return None
            shared, _version = self._current(key)
            if shared is None:
                return None
            hits.append(shared)
        return hits

    def _admit(self, request: JobRequest) -> None:
        cells = max(1, len(request.units))
        bucket: Optional[TokenBucket] = None
        if self.rate is not None:
            bucket = self._buckets.get(request.client)
            if bucket is None:
                bucket = self._buckets[request.client] = TokenBucket(
                    self.rate, self.burst, clock=self._clock
                )
        for name, limit in (("max_queued", self.max_queued),
                            ("burst", bucket.burst if bucket else 0)):
            if limit and cells > limit:
                raise JobTooLargeError(
                    f"job of {cells} cells can never be admitted: {name} "
                    f"is {limit:g}; split it into smaller jobs"
                )
        if self.max_queued:
            depth = self.queue_depth()
            if depth + cells > self.max_queued:
                self.metrics.jobs_throttled_queue += 1
                raise QueueFullError(
                    f"admission queue full ({depth}/{self.max_queued} "
                    f"cells queued; job needs {cells})",
                    retry_after=self._drain_estimate(depth),
                )
        if bucket is not None and not bucket.take(float(cells)):
            self.metrics.jobs_throttled_rate += 1
            raise RateLimitedError(
                f"client {request.client!r} exceeded "
                f"{bucket.rate:g} cells/s (burst {bucket.burst:g})",
                retry_after=bucket.wait_time(float(cells)),
            )

    def _drain_estimate(self, depth: int) -> float:
        """Retry-After hint: roughly when the backlog will have moved."""
        total = sum(h.total for h in self.metrics.sim_latency.values())
        count = sum(h.count for h in self.metrics.sim_latency.values())
        per_cell = (total / count) if count else 0.1
        estimate = depth * per_cell / max(1, self.workers)
        return min(30.0, max(0.05, estimate))

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; False if unknown or already settled.

        A job whose task has not started yet settles here: cancelling
        that task means it never runs, so nothing else would.
        """
        job = self.jobs.get(job_id)
        if job is None or job.done:
            return False
        job.task.cancel()
        if job.state == jobstates.QUEUED:
            job.state = jobstates.CANCELLED
            self.metrics.jobs_cancelled += 1
            self._retire(job)
        return True

    def evicted(self, job_id: str) -> bool:
        """Whether this scheduler issued ``job_id`` and no longer holds
        it: the job settled and was evicted past :data:`RETAINED_JOBS`."""
        try:
            seq = int(job_id[len("job-"):])
        except ValueError:
            return False
        # the id it would have been issued as: rejects other spellings
        return (0 < seq <= self._job_seq and _job_id(seq) == job_id
                and job_id not in self.jobs)

    # -- job driver ----------------------------------------------------

    async def _run_job(self, job: Job) -> None:
        job.state = jobstates.RUNNING
        tasks = [
            asyncio.create_task(self._resolve_unit(
                unit, job.request.priority,
                predict=job.request.predict,
                client=job.request.client,
            ))
            for unit in job.request.units
        ]
        try:
            self._done(job, await asyncio.gather(*tasks))
        except asyncio.CancelledError:
            job.state = jobstates.CANCELLED
            self.metrics.jobs_cancelled += 1
            await self._reap(tasks)
        except CellExecutionError as exc:
            job.state = jobstates.FAILED
            job.error = exc.payload()
            self.metrics.jobs_failed += 1
            await self._reap(tasks)
        except Exception as exc:  # defensive: never lose a job silently
            job.state = jobstates.FAILED
            job.error = {"error": f"{type(exc).__name__}: {exc}"}
            self.metrics.jobs_failed += 1
            await self._reap(tasks)
        finally:
            self._retire(job)

    def _done(self, job: Job, payloads: List[Dict[str, Any]]) -> None:
        """Mark ``job`` DONE with one result per unit (a job task, or
        ``submit`` for a job of current store hits)."""
        job.results = [
            {"unit": unit.describe(), "result": payload}
            for unit, payload in zip(job.request.units, payloads)
        ]
        job.state = jobstates.DONE
        self.metrics.jobs_done += 1

    def _retire(self, job: Job) -> None:
        """Settle ``job``, whatever its final state: the one way out of
        the active jobs (``submit``, the end of the job's task, or
        ``cancel`` before the task started).  Keeps its id among the
        retained settled jobs and evicts the oldest past the bound."""
        job.finished_at = wallclock.now()
        job.task = None
        self._jobs_active -= 1
        self._settled.append(job.id)
        if len(self._settled) > RETAINED_JOBS:
            self.jobs.pop(self._settled.popleft(), None)
            self.metrics.jobs_evicted += 1

    @staticmethod
    async def _reap(tasks: List["asyncio.Task"]) -> None:
        """Cancel and drain a failed/cancelled job's remaining unit
        tasks so no orphan waiter outlives its job (coalesced peers on
        other jobs are unaffected — they hold their own subscriptions).
        """
        for task in tasks:
            if not task.done():
                task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    # -- unit resolution -----------------------------------------------

    async def _resolve_unit(self, unit: Cell, priority: int,
                            predict: bool = False,
                            client: str = "anonymous") -> Dict[str, Any]:
        self.metrics.cells_requested += 1
        key = unit.key()
        if predict:
            return await self._resolve_predicted(unit, key, client)

        entry = self._in_flight.get(key)
        if entry is not None:
            self.metrics.cells_coalesced += 1
            entry.subscribers += 1
            return await self._await_entry(entry)

        cached = self._stored(key)
        if cached is not None:
            return self._hit(cached, predict=False)

        entry = _CellEntry(key, unit,
                           asyncio.get_running_loop().create_future(),
                           priority, client)
        self._in_flight[key] = entry
        self._enqueue(entry)
        return await self._await_entry(entry)

    async def _resolve_predicted(self, unit: Cell, key: str,
                                 client: str = "anonymous",
                                 ) -> Dict[str, Any]:
        """Tier-0: exact from the store if warm, else an instant
        analytical answer plus a background exact refinement."""
        cached = self._stored(key)
        if cached is not None:
            return self._hit(cached, predict=True)
        loop = asyncio.get_running_loop()
        attempts = 0
        while True:
            pool_gen = self._pool_gen
            try:
                payload = await loop.run_in_executor(
                    self._pool, self._predict_fn, unit, self.trace_dir,
                )
                break
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                if isinstance(exc, BrokenExecutor):
                    self._restart_pool(pool_gen)
                    if attempts < self.requeue_limit:
                        attempts += 1
                        continue
                self.metrics.cells_failed += 1
                raise CellExecutionError(unit, key, exc) from exc
        self.metrics.predict_answers += 1
        self._ensure_refinement(unit, key, client)
        return payload

    def _hit(self, shared: _SharedPayload,
             predict: bool) -> Dict[str, Any]:
        """Count one unit served from the store; a predict unit gets
        the payload flagged exact on a copy."""
        self.metrics.cells_store_hits += 1
        if not predict:
            return shared
        answer = _ExactAnswer(shared)   # the shared payload stays as stored
        answer["tier"] = "exact"        # response-only; never stored
        answer.shared = shared
        return answer

    def _current(self, key: str) -> Tuple[Optional[_SharedPayload], Any]:
        """One ``stat`` of ``key``'s entry: the payload table's dict if
        it was read at the version the stat finds (else ``None``), and
        that version.  Counts nothing."""
        version = self.store.entry_version(key)
        shared = self._payloads.get(key)
        if shared is None or version is None or shared.version != version:
            return None, version
        return shared, version

    def _stored(self, key: str) -> Optional[_SharedPayload]:
        """The store's payload for ``key``, or ``None`` (a counted miss).

        While the entry's version matches the payload table's, the
        table's dict is the answer, counted as a store hit as the read
        it replaces would be; otherwise ``store.get`` decides.
        """
        shared, version = self._current(key)
        if shared is not None:
            self.store.stats.hits += 1
            return shared
        result = self.store.get(key)
        if result is None:
            return None
        # stat before read: an entry replaced in between is tagged with
        # the old version (or none), so the next stat re-reads it
        shared = self._payloads[key] = _SharedPayload(result.to_dict())
        shared.version = version
        return shared

    def _ensure_refinement(self, unit: Cell, key: str,
                           client: str = "anonymous") -> None:
        """Queue the exact execution behind an analytical answer (once
        per cell: a refinement or plain request already in flight is
        reused, and later plain requests coalesce onto it as usual)."""
        entry = self._in_flight.get(key)
        if entry is None:
            entry = _CellEntry(
                key, unit, asyncio.get_running_loop().create_future(),
                PRIORITY_REFINE, client,
            )
            # the initial subscription is the refinement itself (it
            # never cancels, so coalesced waiters can come and go
            # without abandoning the entry); nothing awaits the future,
            # so consume a failure before it can log as unretrieved
            entry.future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None
            )
            self._in_flight[key] = entry
            self._enqueue(entry)
            self.metrics.refinements += 1
        if entry.predicted_at is None:
            entry.predicted_at = wallclock.monotonic()

    async def _await_entry(self, entry: _CellEntry) -> Dict[str, Any]:
        try:
            return await asyncio.shield(entry.future)
        except asyncio.CancelledError:
            entry.subscribers -= 1
            if entry.subscribers <= 0 and not entry.started:
                # nobody wants it and no worker picked it up: abandon
                entry.abandoned = True
                self._in_flight.pop(entry.key, None)
            raise

    # -- sharded fair queueing -----------------------------------------

    def _enqueue(self, entry: _CellEntry) -> None:
        """Queue one cold cell on its shard, ordered by priority, then
        virtual finish tag, then arrival."""
        assert self._queues, "Scheduler.start() was never awaited"
        shard = shard_of(entry.key, self.workers)
        weight = self._weights.get(entry.client, self._default_weight)
        start = max(self._vtime[shard],
                    self._finish[shard].get(entry.client, 0.0))
        finish = start + 1.0 / weight
        self._finish[shard][entry.client] = finish
        self._queue_seq += 1
        self._queues[shard].put_nowait(
            (entry.priority, finish, self._queue_seq, entry)
        )

    # -- worker pumps --------------------------------------------------

    async def _pump(self, index: int) -> None:
        """Run shard ``index``'s cells, one at a time (one pump per
        worker)."""
        queue = self._queues[index]
        loop = asyncio.get_running_loop()
        while True:
            _priority, finish, _seq, entry = await queue.get()
            self._vtime[index] = max(self._vtime[index], finish)
            if not entry.abandoned:
                entry.started = True
                self.metrics.queue_wait.observe(
                    wallclock.monotonic() - entry.enqueued_at
                )
                await self._execute(loop, entry)
            # keep no settled cell alive while waiting for the next
            del entry

    async def _execute(self, loop: asyncio.AbstractEventLoop,
                       entry: _CellEntry) -> None:
        cell = entry.cell.cell(self.engine)
        t0 = wallclock.monotonic()
        entry.pool_gen = self._pool_gen
        try:
            if cell.mode == MODE_REPLAY:
                payload = await loop.run_in_executor(
                    self._pool, self._replay_fn, cell, self.trace_dir,
                )
            else:
                payload = await loop.run_in_executor(
                    self._pool, self._sim_fn, cell
                )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            if isinstance(exc, BrokenExecutor):
                self._restart_pool(entry.pool_gen)
                if entry.requeues < self.requeue_limit:
                    entry.requeues += 1
                    entry.started = False
                    entry.enqueued_at = wallclock.monotonic()
                    self.metrics.cells_requeued += 1
                    self._enqueue(entry)
                    return
            self.metrics.cells_failed += 1
            self._settle(entry,
                         error=CellExecutionError(cell, entry.key, exc))
            return
        self.metrics.cells_simulated += 1
        self.metrics.sim_latency_for(cell.scheme).observe(
            wallclock.monotonic() - t0
        )
        self.store.put(entry.key, SimResult.from_dict(payload),
                       meta=cell.meta())
        if entry.predicted_at is not None:
            self.metrics.supersede_latency.observe(
                wallclock.monotonic() - entry.predicted_at
            )
        self._settle(entry, payload=payload)

    def _restart_pool(self, failed_gen: int) -> None:
        """Replace a broken executor exactly once per generation.

        A dying worker fails *every* in-flight future with
        ``BrokenExecutor`` concurrently; the generation check makes the
        first such failure rebuild the pool and the rest reuse it.
        """
        if failed_gen < self._pool_gen:
            return
        self._pool_gen += 1
        self.metrics.worker_restarts += 1
        broken = self._pool
        if broken is not None:
            broken.shutdown(wait=False, cancel_futures=True)
        self._pool = self._new_pool()
        self._owns_pool = True

    def _settle(self, entry: _CellEntry,
                payload: Optional[Dict[str, Any]] = None,
                error: Optional[BaseException] = None) -> None:
        self._in_flight.pop(entry.key, None)
        if entry.future.done():  # every waiter already detached
            return
        if error is not None:
            # consume the exception once so an all-waiters-cancelled
            # future never logs "exception was never retrieved"
            entry.future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None
            )
            entry.future.set_exception(error)
        else:
            entry.future.set_result(payload)

    # -- introspection -------------------------------------------------

    def queue_depth(self) -> int:
        return sum(queue.qsize() for queue in self._queues)

    def running_count(self) -> int:
        return sum(1 for e in self._in_flight.values() if e.started)

    def active_jobs(self) -> int:
        return self._jobs_active

    def metrics_snapshot(self) -> Dict[str, Any]:
        store_stats = getattr(self.store, "stats", None)
        return self.metrics.snapshot(
            queued=self.queue_depth(),
            running=self.running_count(),
            jobs_active=self.active_jobs(),
            store_stats=store_stats.as_dict() if store_stats else None,
            draining=self.draining,
            uptime=wallclock.monotonic() - self.started_at,
            workers={
                "configured": self.workers,
                "pool_generation": self._pool_gen,
            },
        )

    def health(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "status": "draining" if self.draining else "ok",
            "workers": self.workers,
            "jobs_active": self.active_jobs(),
            "cells_queued": self.queue_depth(),
            "cells_running": self.running_count(),
            "worker_restarts": self.metrics.worker_restarts,
        }
        if self.max_queued:
            doc["max_queued"] = self.max_queued
        return doc
