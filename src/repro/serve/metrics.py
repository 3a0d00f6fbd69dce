"""Service observability: counters and latency histograms.

Everything the ``/metrics`` endpoint reports lives here, updated by the
scheduler as it admits, coalesces, resolves and executes units:

* job lifecycle counters (submitted / done / failed / cancelled),
* cell accounting (requested, coalesced onto an in-flight execution,
  served warm from the store, simulated cold, failed),
* tier-0 accounting (analytical answers returned, background exact
  refinements queued, and the superseded-answer latency histogram:
  analytical answer -> exact result stored),
* HTTP accounting (connections accepted, requests parsed: their ratio
  is how many requests each kept connection carried),
* a queue-wait histogram (enqueue -> worker pickup), and
* per-policy simulation-latency histograms.

Snapshots are plain JSON; :func:`render_prometheus` renders the same
snapshot in the Prometheus text exposition format for scrapers.  All
timing flows through :mod:`repro.utils.wallclock` — service telemetry
is the one sanctioned consumer of wall-clock time in this package, and
nothing recorded here feeds back into simulation semantics.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Log-spaced latency buckets (seconds).  The interesting range spans a
#: tier-0 analytical answer (~18 µs) through a warm store hit to a
#: multi-minute bulk simulation; the sub-millisecond decades exist so
#: tier-0 and store-hit latencies resolve instead of piling into the
#: first bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-05, 2.5e-05, 5e-05, 0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


class LatencyHistogram:
    """Fixed-bucket histogram with a Prometheus-compatible shape."""

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(buckets)
        self.counts = [0] * (len(self.bounds) + 1)  # last = +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        # First bound >= seconds, i.e. the first bucket whose
        # ``seconds <= bound`` test passes; len(bounds) lands in +Inf.
        self.counts[bisect_left(self.bounds, seconds)] += 1

    def snapshot(self) -> Dict[str, Any]:
        """Cumulative bucket counts keyed by upper bound (like ``le``)."""
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            cumulative[f"{bound:g}"] = running
        cumulative["+Inf"] = running + self.counts[-1]
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "buckets": cumulative,
        }


@dataclass
class ServeMetrics:
    """All counters behind ``/metrics``; owned by one scheduler."""

    jobs_submitted: int = 0
    jobs_done: int = 0
    jobs_failed: int = 0
    jobs_cancelled: int = 0
    jobs_rejected: int = 0          # submissions refused while draining
    # cluster admission control (HTTP 429 + Retry-After)
    jobs_throttled_queue: int = 0   # refused: admission queue full
    jobs_throttled_rate: int = 0    # refused: client over its token bucket

    cells_requested: int = 0        # every unit a job asked for
    cells_coalesced: int = 0        # attached to an in-flight execution
    cells_store_hits: int = 0       # served warm from the result store
    cells_simulated: int = 0        # executed cold on a worker
    cells_failed: int = 0
    cells_requeued: int = 0         # re-admitted after a worker crash

    # worker-pool supervision (ClusterScheduler)
    worker_restarts: int = 0        # pool replaced after a crash

    # tier-0 analytical serving (``predict: true`` jobs)
    predict_answers: int = 0        # analytical answers returned
    refinements: int = 0            # background exact refinements queued

    # HTTP front end (repro.serve.server)
    http_connections: int = 0       # connections accepted
    http_requests: int = 0          # requests parsed and answered

    queue_wait: LatencyHistogram = field(default_factory=LatencyHistogram)
    sim_latency: Dict[str, LatencyHistogram] = field(default_factory=dict)
    #: Analytical answer returned -> exact result stored for that cell
    #: (how long a superseded answer stays the best one available).
    supersede_latency: LatencyHistogram = field(
        default_factory=LatencyHistogram)

    def sim_latency_for(self, scheme: str) -> LatencyHistogram:
        hist = self.sim_latency.get(scheme)
        if hist is None:
            hist = self.sim_latency[scheme] = LatencyHistogram()
        return hist

    # ------------------------------------------------------------------

    def snapshot(
        self,
        *,
        queued: int = 0,
        running: int = 0,
        jobs_active: int = 0,
        store_stats: Optional[Dict[str, int]] = None,
        draining: bool = False,
        uptime: Optional[float] = None,
        workers: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One coherent JSON document for the ``/metrics`` endpoint."""
        workers_doc: Dict[str, Any] = {"restarts_total": self.worker_restarts}
        workers_doc.update(workers or {})
        doc: Dict[str, Any] = {
            "jobs": {
                "submitted": self.jobs_submitted,
                "active": jobs_active,
                "done": self.jobs_done,
                "failed": self.jobs_failed,
                "cancelled": self.jobs_cancelled,
                "rejected": self.jobs_rejected,
                "throttled_queue": self.jobs_throttled_queue,
                "throttled_rate": self.jobs_throttled_rate,
            },
            "cells": {
                "requested": self.cells_requested,
                "coalesced": self.cells_coalesced,
                "store_hits": self.cells_store_hits,
                "simulated": self.cells_simulated,
                "failed": self.cells_failed,
                "requeued": self.cells_requeued,
                "queued": queued,
                "running": running,
            },
            "predict": {
                "answers_total": self.predict_answers,
                "refinements_total": self.refinements,
            },
            "workers": workers_doc,
            "http": {
                "connections": self.http_connections,
                "requests": self.http_requests,
            },
            "store": dict(store_stats or {}),
            "queue_wait_seconds": self.queue_wait.snapshot(),
            "supersede_latency_seconds": self.supersede_latency.snapshot(),
            "sim_latency_seconds": {
                scheme: hist.snapshot()
                for scheme, hist in sorted(self.sim_latency.items())
            },
            "draining": draining,
        }
        if uptime is not None:
            doc["uptime_seconds"] = round(uptime, 3)
        return doc


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """Render a :meth:`ServeMetrics.snapshot` document as Prometheus
    text exposition (``/metrics?format=prom``)."""
    lines: List[str] = []

    def counter(name: str, value: Any, labels: str = "") -> None:
        lines.append(f"repro_serve_{name}{labels} {value}")

    for group in ("jobs", "cells", "predict", "workers", "http", "store"):
        for key, value in snapshot.get(group, {}).items():
            counter(f"{group}_{key}", value)
    counter("draining", int(bool(snapshot.get("draining"))))
    if "uptime_seconds" in snapshot:
        counter("uptime_seconds", snapshot["uptime_seconds"])

    def histogram(name: str, hist: Dict[str, Any], labels: str = "") -> None:
        for bound, value in hist["buckets"].items():
            sep = "," if labels else ""
            label = labels[:-1] + sep if labels else "{"
            lines.append(
                f'repro_serve_{name}_bucket{label}le="{bound}"}} {value}'
            )
        counter(f"{name}_sum", hist["sum"], labels)
        counter(f"{name}_count", hist["count"], labels)

    histogram("queue_wait_seconds", snapshot["queue_wait_seconds"])
    if "supersede_latency_seconds" in snapshot:
        histogram("supersede_latency_seconds",
                  snapshot["supersede_latency_seconds"])
    for scheme, hist in snapshot.get("sim_latency_seconds", {}).items():
        histogram("sim_latency_seconds", hist, labels=f'{{scheme="{scheme}"}}')
    return "\n".join(lines) + "\n"
