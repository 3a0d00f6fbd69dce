"""Job bookkeeping and the worker-process entry points.

A :class:`Job` is the service-side record of one client submission:
its request, lifecycle state, per-unit results and (on failure) the
machine-readable error payload.  Jobs never cross the process boundary
— only the two module-level worker functions below do, and both return
plain serialized dicts (the store's exact on-disk representation), so
a payload that crossed the pool and one read back from disk are
bit-identical.

Worker entry points:

* timing cells reuse :func:`repro.experiments.executor.simulate_cell`
  directly (same function the sweep executor ships to its pool);
* replay cells run :func:`replay_unit`, which resolves the cell
  through the replay sweep executor (record-once through an optional
  shared trace directory);
* tier-0 analytical answers come from :func:`predict_unit`, which keeps
  one profile-caching :class:`~repro.predict.executor.
  PredictSweepExecutor` alive per worker process, so repeat predictions
  for the same stream skip straight to the closed-form model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments.executor import Cell
from repro.serve.protocol import PRIORITY_NAMES, JobRequest
from repro.utils import wallclock

# job lifecycle states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = (DONE, FAILED, CANCELLED)


@dataclass
class Job:
    """One submitted job and everything the status endpoint reports."""

    id: str
    request: JobRequest
    state: str = QUEUED
    submitted_at: float = field(default_factory=wallclock.now)
    finished_at: Optional[float] = None
    results: Optional[List[Dict[str, Any]]] = None
    error: Optional[Dict[str, Any]] = None
    task: Any = None                # the asyncio.Task driving it, until done

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    def summary(self) -> Dict[str, Any]:
        """Compact listing entry (``GET /jobs``)."""
        priority_name = next(
            (name for name, value in PRIORITY_NAMES.items()
             if value == self.request.priority),
            str(self.request.priority),
        )
        doc = {
            "id": self.id,
            "kind": self.request.kind,
            "priority": priority_name,
            "state": self.state,
            "units": len(self.request.units),
        }
        if self.request.client != "anonymous":
            doc["client"] = self.request.client
        return doc

    def status(self, include_results: bool = True) -> Dict[str, Any]:
        """Full status document (``GET /jobs/<id>``)."""
        doc = self.summary()
        doc["unit_specs"] = [u.describe() for u in self.request.units]
        doc["submitted_at"] = round(self.submitted_at, 3)
        if self.finished_at is not None:
            doc["finished_at"] = round(self.finished_at, 3)
        if self.error is not None:
            doc["error"] = self.error
        if include_results and self.results is not None:
            doc["results"] = self.results
        return doc


# ----------------------------------------------------------------------
# worker-process entry points (module-level: must be picklable)
# ----------------------------------------------------------------------

def replay_unit(cell: Cell,
                trace_dir: Optional[str] = None) -> Dict[str, Any]:
    """Replay one cell on its engine; returns the serialized result.

    The cell resolves through a
    :class:`~repro.trace.sweep.ReplaySweepExecutor`.  With a
    ``trace_dir``, the workload's stream is recorded at most once per
    stream key and shared with every other scheme (and with the
    ``repro trace``/``repro sweep --replay`` verbs); the trace writer
    publishes each recording atomically, so two workers racing to
    capture the same stream at worst record it twice — a reader never
    observes a torn trace.  Trace keys ignore ``non_blocking``, so one
    recording serves both MSHR modes.
    """
    from repro.trace.sweep import ReplaySweepExecutor

    executor = ReplaySweepExecutor(trace_dir=trace_dir or None,
                                   engine=cell.engine)
    return executor.run_cells([cell])[0].to_dict()


#: Per-process predictor cache, keyed by trace directory: worker
#: processes are long-lived, so every prediction after the first for a
#: given stream reuses its profile instead of re-capturing.
_PREDICTORS: Dict[Optional[str], Any] = {}


def predict_unit(cell: Cell,
                 trace_dir: Optional[str] = None) -> Dict[str, Any]:
    """Answer one cell analytically (tier-0).

    Returns :meth:`repro.predict.model.Prediction.to_dict` — flagged
    ``tier: "analytical"`` and carrying the calibration's error bars —
    never the store's exact-result shape.  With a ``trace_dir``, a
    stream already recorded for the replay tier is profiled from its
    trace instead of re-captured.
    """
    from repro.predict import PredictSweepExecutor

    executor = _PREDICTORS.get(trace_dir)
    if executor is None:
        executor = _PREDICTORS[trace_dir] = \
            PredictSweepExecutor(trace_dir=trace_dir)
    return executor.predict_cell(cell).to_dict()
