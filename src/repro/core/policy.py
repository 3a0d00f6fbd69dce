"""Cache-management policy interface.

The four schemes the paper evaluates (baseline LRU, Stall-Bypass,
Global-Protection, DLP) differ only in

* how a victim is chosen inside a set (protection constrains LRU),
* whether a request that cannot allocate is *bypassed* or *stalled*,
* what bookkeeping runs on set queries / hits / misses / evictions
  (PL decay, VTA insertion and probing, PDPT hit accounting, sampling).

This module defines the hook surface; :mod:`repro.cache.l1d` drives it at
the protocol points of the paper's Figure 1/8 flow:

    access -> on_set_query -> hit?  -> on_hit
                           -> miss? -> on_miss (VTA probe)
                                    -> MSHR merge / allocate
                                    -> select_victim -> on_evict / bypass
    every access ends with on_access_done (sampling tick)
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.l1d import L1DCache, MemAccess
    from repro.cache.line import CacheLine
    from repro.cache.tagarray import CacheSet


class StallReason(enum.Enum):
    """Why the baseline L1D would block the memory pipeline (Section 2)."""

    MSHR_FULL = "mshr_full"
    MERGE_FULL = "merge_full"
    NO_RESERVABLE_LINE = "no_reservable_line"
    MISS_QUEUE_FULL = "miss_queue_full"


class CachePolicy:
    """Base policy: plain LRU, stall on every resource exhaustion.

    Subclasses override the hooks they care about.  The base class is a
    correct implementation of the paper's baseline configuration, so
    :class:`repro.core.baseline.BaselinePolicy` is a thin alias.
    """

    name = "base"

    def __init__(self) -> None:
        self.cache: Optional["L1DCache"] = None

    # -- lifecycle -------------------------------------------------------

    def attach(self, cache: "L1DCache") -> None:
        """Called once when the cache is constructed."""
        self.cache = cache

    def reset(self) -> None:
        """Clear policy state between kernels/runs (stats survive)."""

    # -- protocol hooks ---------------------------------------------------

    def on_set_query(self, cache_set: "CacheSet", access: "MemAccess") -> None:
        """Every request that reaches the cache queries one set."""

    def on_hit(self, line: "CacheLine", access: "MemAccess", reserved: bool) -> None:
        """TDA hit (``reserved=True`` for a hit on a pending fill)."""

    def on_miss(self, access: "MemAccess") -> None:
        """TDA miss, before MSHR handling (DLP probes the VTA here)."""

    def select_victim(
        self, cache_set: "CacheSet", access: "MemAccess"
    ) -> Optional["CacheLine"]:
        """Choose a line to replace; ``None`` means no line is replaceable.

        Baseline: an INVALID line if any, else LRU among VALID lines
        (RESERVED lines are never replaceable).
        """
        invalid = cache_set.find_invalid()
        if invalid is not None:
            return invalid
        candidates = cache_set.replaceable()
        if not candidates:
            return None
        return min(candidates, key=lambda line: line.lru_stamp)

    def bypass_on_no_victim(self, access: "MemAccess") -> bool:
        """Bypass instead of stalling when no victim exists in the set."""
        return False

    def bypass_on_stall(self, reason: StallReason, access: "MemAccess") -> bool:
        """Bypass instead of stalling on MSHR/miss-queue exhaustion.

        The answer may depend on ``reason`` and ``access`` only: the
        LD/ST unit replays a refused request's stall without asking
        again until the L1D fills or drains.
        """
        return False

    def on_allocate(self, line: "CacheLine", access: "MemAccess") -> None:
        """A line was reserved for this miss (PL is written here)."""

    def on_evict(self, line: "CacheLine") -> None:
        """A valid line is being replaced (DLP inserts into the VTA)."""

    def on_bypass(self, access: "MemAccess") -> None:
        """The request was sent to the interconnect uncached."""

    def on_access_done(self, access: "MemAccess", outcome: "enum.Enum") -> None:
        """Runs once per completed (non-stalled) access: sampling tick."""

    # -- external notifications ------------------------------------------

    def notify_instructions(self, count: int) -> None:
        """The core executed ``count`` thread instructions (sampling cap)."""

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Policy-internal statistics for reports and tests."""
        return {}

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"
