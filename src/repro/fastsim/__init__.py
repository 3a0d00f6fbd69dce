"""Packed fast-path simulation engine (``--engine fast``).

Two interchangeable engines exist:

* ``reference`` — the per-object model (:mod:`repro.cache.l1d` +
  :mod:`repro.core`), with hardware bit-width contracts and per-hook
  policy dispatch.  The semantic source of truth.
* ``fast`` — the packed engine.  The timing simulator and per-record
  replay (non-blocking, or over already-warmed caches) drive
  :class:`repro.fastsim.engine.FastL1DCache`, a struct-of-arrays L1D
  with the four policies inlined; blocking trace replay runs the
  generated kernels of :mod:`repro.batchsim` over the same packed
  state.  Both are bit-identical to the reference (proven by
  ``tests/fastsim`` and ``tests/batchsim``), several times faster.

``batch`` is accepted as another spelling of ``fast``;
:func:`validate_engine` maps every spelling to its canonical name.

Because results are identical, the engine choice is an *execution*
detail, never part of a result's identity: store keys and cell
fingerprints exclude it, and results computed by either engine resolve
each other in every store.

This package module stays import-light (engine only) so
``repro.gpu.sm`` can import it without cycles; the replay engine
(:mod:`repro.batchsim.engine`) and the profiler
(:mod:`repro.fastsim.profile`) import the simulator layers and are
loaded lazily by their callers.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.l1d import FetchRequest, L1DCache
from repro.cache.tagarray import CacheGeometry
from repro.core.policy import CachePolicy
from repro.fastsim.engine import FastL1DCache, PolicySpec

#: The selectable engines, in default-first order.
ENGINES = ("reference", "fast")
DEFAULT_ENGINE = ENGINES[0]

#: Other accepted spellings, each mapped to its canonical engine.
_ALIASES = {"batch": "fast"}


def validate_engine(engine: str) -> str:
    """The canonical name of ``engine``; raises on an unknown one."""
    canonical = _ALIASES.get(engine, engine)
    if canonical not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return canonical


def make_l1d(
    engine: str,
    geometry: CacheGeometry,
    policy: CachePolicy,
    send_fn: Optional[Callable[[FetchRequest], None]] = None,
    mshr_entries: int = 32,
    mshr_merge: int = 8,
    miss_queue_depth: int = 8,
    sm_id: int = 0,
    non_blocking: bool = False,
):
    """Build the selected engine's L1D; both share one protocol surface."""
    cls = L1DCache if validate_engine(engine) == "reference" else FastL1DCache
    return cls(
        geometry,
        policy,
        send_fn=send_fn,
        mshr_entries=mshr_entries,
        mshr_merge=mshr_merge,
        miss_queue_depth=miss_queue_depth,
        sm_id=sm_id,
        non_blocking=non_blocking,
    )


__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "FastL1DCache",
    "PolicySpec",
    "make_l1d",
    "validate_engine",
]
