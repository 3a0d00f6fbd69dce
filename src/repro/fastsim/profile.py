"""Phase profiler for the L1D engines (``repro profile APP --scheme``).

Answers two questions about one (app, scheme) cell:

1. *Where does the reference engine spend its time?*  The cell's access
   stream is captured once and replayed through the reference
   :class:`~repro.trace.replay.ReplayEngine` with every policy hook
   wrapped in a wall-clock timer, bucketed into the phases of the
   Figure 1/8 access flow: set query (PL decay), victim selection,
   the remaining policy hooks (hit/miss/evict/allocate/bypass), and
   sampling (access-done ticks + instruction notifications).  The
   residue — tag scans, MSHR bookkeeping, dispatch — reports as
   ``other``.
2. *What does the packed engine buy?*  The same stream runs through
   ``ReplayEngine(..., engine="fast")`` end to end; the profile reports
   both engines' per-access cost and the speedup, and raises if the
   results are not bit-identical (profiling a divergent engine would
   time a different computation).

Timer overhead inflates the reference's hook phases slightly, so the
phase split is a map of *where the model's time goes*, not a promise of
recoverable microseconds; the engine-vs-engine totals are measured
without any instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.gpu.config import GPUConfig
from repro.utils import wallclock

#: policy hook -> reported phase (the Figure 1/8 flow stations).
PHASE_OF_HOOK: Dict[str, str] = {
    "on_set_query": "set_query",
    "select_victim": "victim_select",
    "on_hit": "policy_hooks",
    "on_miss": "policy_hooks",
    "on_evict": "policy_hooks",
    "on_allocate": "policy_hooks",
    "on_bypass": "policy_hooks",
    "bypass_on_no_victim": "policy_hooks",
    "bypass_on_stall": "policy_hooks",
    "on_access_done": "sampling",
    "notify_instructions": "sampling",
}

#: report order.
PHASES = ("set_query", "victim_select", "policy_hooks", "sampling", "other")


class _TimedPolicy:
    """Transparent policy proxy: every hook call adds its wall-clock
    cost to the shared phase bucket; everything else passes through."""

    def __init__(self, inner, buckets: Dict[str, float]) -> None:
        self._inner = inner
        for hook, phase in PHASE_OF_HOOK.items():
            setattr(self, hook, _timed(getattr(inner, hook), buckets, phase))

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def _timed(fn: Callable, buckets: Dict[str, float], phase: str) -> Callable:
    def wrapper(*args, **kwargs):
        t0 = wallclock.perf()
        try:
            return fn(*args, **kwargs)
        finally:
            buckets[phase] += wallclock.perf() - t0

    return wrapper


@dataclass
class PhaseProfile:
    """One profiled cell: phase split + engine comparison."""

    abbr: str
    scheme: str
    records: int
    phases: Dict[str, float]        # seconds, keys = PHASES
    reference_seconds: float
    fast_seconds: float

    @property
    def speedup(self) -> float:
        return self.reference_seconds / self.fast_seconds \
            if self.fast_seconds else 0.0

    def per_access_us(self, seconds: float) -> float:
        return seconds / self.records * 1e6 if self.records else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "abbr": self.abbr,
            "scheme": self.scheme,
            "records": self.records,
            "phases_seconds": dict(self.phases),
            "reference_seconds": self.reference_seconds,
            "fast_seconds": self.fast_seconds,
            "reference_us_per_access": self.per_access_us(
                self.reference_seconds),
            "fast_us_per_access": self.per_access_us(self.fast_seconds),
            "speedup": self.speedup,
        }

    def render(self) -> str:
        from repro.analysis import ascii_table

        total = self.reference_seconds or 1.0
        rows = [
            (
                phase,
                f"{self.phases[phase] * 1e3:.2f}",
                f"{self.phases[phase] / total * 100:.1f}%",
                f"{self.per_access_us(self.phases[phase]):.3f}",
            )
            for phase in PHASES
        ]
        table = ascii_table(
            ["Phase", "ms", "share", "us/access"],
            rows,
            title=f"{self.abbr} under {self.scheme}: reference engine, "
                  f"{self.records} accesses",
        )
        summary = (
            f"\nreference: {self.per_access_us(self.reference_seconds):.3f} "
            f"us/access ({self.reference_seconds * 1e3:.1f} ms)"
            f"\nfast:      {self.per_access_us(self.fast_seconds):.3f} "
            f"us/access ({self.fast_seconds * 1e3:.1f} ms)"
            f"\nspeedup:   {self.speedup:.1f}x (bit-identical results)"
        )
        return table + summary


def profile_cell(
    abbr: str,
    scheme: str = "dlp",
    num_sms: int = 4,
    scale: float = 1.0,
    seed: int = 0,
    **policy_kwargs,
) -> PhaseProfile:
    """Capture one cell's stream, time the reference engine per phase,
    and race the fast engine over the same records.

    Raises ``RuntimeError`` if the engines disagree — a phase profile of
    a divergent engine would be timing the wrong computation.
    """
    from repro.trace.record import capture_records
    from repro.trace.replay import ReplayEngine, _resolve
    from repro.workloads import make_workload

    base_config = GPUConfig().scaled(num_sms)
    workload = make_workload(abbr, scale, seed=seed)
    records = capture_records(workload, base_config)
    config, factory = _resolve(scheme, base_config, **policy_kwargs)

    buckets = {phase: 0.0 for phase in PHASES}
    t0 = wallclock.perf()
    reference = ReplayEngine(
        config, lambda: _TimedPolicy(factory(), buckets)
    ).run(iter(records))
    reference_seconds = wallclock.perf() - t0

    t0 = wallclock.perf()
    fast = ReplayEngine(config, factory, "fast").run(iter(records))
    fast_seconds = wallclock.perf() - t0

    if reference.to_dict() != fast.to_dict():
        raise RuntimeError(
            f"engine mismatch profiling {abbr}/{scheme}: the fast engine "
            f"diverged from the reference — fix that before profiling"
        )

    timed = sum(buckets.values())
    buckets["other"] = max(reference_seconds - timed, 0.0)
    return PhaseProfile(
        abbr=abbr,
        scheme=scheme,
        records=len(records),
        phases=buckets,
        reference_seconds=reference_seconds,
        fast_seconds=fast_seconds,
    )
