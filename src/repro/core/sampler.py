"""Sampling window (paper Section 4.1.4).

The sample counter counts L1D accesses; the PD update runs every
``access_limit`` accesses (the paper picks 200 empirically).  For Cache
Sufficient applications with few loads a window could last very long, so
a secondary cap on *executed instructions* closes the window early —
the paper notes the impact on CS applications is trivial either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SampleWindow:
    """Tracks progress through one sampling period.  The limits are
    resolved :class:`~repro.core.protected.ProtectionKnobs` values,
    range-checked there."""

    access_limit: int
    insn_limit: int
    accesses: int = 0
    instructions: int = 0
    samples_completed: int = 0
    closed_by: dict = field(default_factory=lambda: {"accesses": 0, "instructions": 0})

    def tick_access(self) -> bool:
        """Count one cache access; True when the sample just completed."""
        self.accesses += 1
        if self.accesses > self.access_limit:
            raise RuntimeError(
                f"sampling window overshot: {self.accesses} accesses counted "
                f"against a limit of {self.access_limit}. A window close was "
                f"skipped (or the counter was tampered with), so PD updates "
                f"are no longer {self.access_limit}-access aligned."
            )
        if self.accesses >= self.access_limit:
            self._close("accesses")
            return True
        return False

    def tick_instructions(self, count: int) -> bool:
        """Count executed thread instructions; True when the cap closed
        the window (only meaningful if at least one access was seen —
        an empty window has nothing to recompute PDs from)."""
        self.instructions += count
        if self.instructions >= self.insn_limit and self.accesses > 0:
            self._close("instructions")
            return True
        return False

    def _close(self, reason: str) -> None:
        self.samples_completed += 1
        self.closed_by[reason] += 1
        self.accesses = 0
        self.instructions = 0

    def reset(self) -> None:
        self.accesses = 0
        self.instructions = 0
