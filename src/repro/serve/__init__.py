"""``repro.serve`` — long-running asynchronous simulation service.

Every other entry point in this repo (``repro run/compare/sweep/trace
replay``) is a one-shot CLI process: full interpreter start-up, full
re-simulation unless a store is warm, one caller at a time.  This
package turns the same engines into a service:

* :mod:`repro.serve.protocol` — job request/response shapes and their
  validation (a job is one cell, a sweep grid, or a trace replay; each
  unit is a :class:`repro.experiments.executor.Cell`);
* :mod:`repro.serve.scheduler` — the core: one scheduler over a
  bounded ``ProcessPoolExecutor``.  Identical in-flight requests are
  **coalesced** onto one execution keyed by the store's content
  addresses (``cell_key``/``replay_cell_key``) and warm results are
  served straight from the result store; cold cells queue on their
  worker's shard in weighted-fair priority order, behind admission
  limits (429, or 413 for a job too large ever to admit), and a
  crashed worker pool is replaced with its cells requeued once;
* :mod:`repro.serve.cluster` — ``ClusterScheduler``, the scheduler's
  former name, still imported by the benchmark's serve workload;
* :mod:`repro.serve.metrics` — counters and latency histograms behind
  the ``/metrics`` endpoint;
* :mod:`repro.serve.server` — a stdlib-only asyncio HTTP front end
  (``repro serve``) with ``/healthz``, ``/metrics``, job submission,
  polling, cancellation, and graceful drain on SIGTERM;
* :mod:`repro.serve.client` — a blocking HTTP client (``repro submit``
  and the test suite drive the service through it).

The whole package is stdlib-only (asyncio + http.client); simulation
semantics live entirely in the engines it schedules — nothing here may
alter what a simulation produces, only when and where it runs.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.metrics import LatencyHistogram, ServeMetrics
from repro.serve.protocol import JobRequest, ProtocolError, parse_job_request
from repro.serve.scheduler import Scheduler
from repro.serve.server import ServerThread, serve_async

__all__ = [
    "JobRequest",
    "LatencyHistogram",
    "ProtocolError",
    "Scheduler",
    "ServeClient",
    "ServeError",
    "ServeMetrics",
    "ServerThread",
    "parse_job_request",
    "serve_async",
]
