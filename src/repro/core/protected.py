"""What DLP and Global-Protection share: one knob declaration, one base.

Global-Protection is DLP with one global Protection Distance in place of
the per-instruction one (paper Section 5.3: "instead of an
instruction-based PD like the left-most path in Figure 9, this scheme
computes a global PD for all cache entries").  So both reference
policies derive from :class:`ProtectedPolicy`, which owns the rest:

* the knobs, the Victim Tag Array and the sampling window;
* Protected Life decay on every set query (bypassed requests too, so
  protected sets drain and are eventually released);
* victim selection: LRU over valid, unprotected lines;
* the bypass decision when no such line exists;
* the sampling tick that ends a sample after ``sample_limit`` accesses
  or ``insn_sample_limit`` executed instructions.

Each subclass keeps only its PD source, its hit/miss crediting,
``reset``, ``_end_sample`` and its stats.

:class:`ProtectionKnobs` declares the six knobs once: their defaults
(the paper's), their range checks and the one resolver of the two
``None`` fallbacks.  The packed engine (:mod:`repro.fastsim.engine`) and
the analytical model (:mod:`repro.predict.model`) read it too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.cache.replacement import protected_lru_victim
from repro.check.contracts import set_field_width
from repro.core.pdpt import PD_BITS
from repro.core.policy import CachePolicy
from repro.core.sampler import SampleWindow
from repro.core.vta import VictimTagArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.l1d import L1DCache, MemAccess
    from repro.cache.line import CacheLine
    from repro.cache.tagarray import CacheSet


@dataclass(frozen=True)
class ProtectionKnobs:
    """The knobs of DLP and Global-Protection; the defaults are the
    paper's configuration."""

    #: L1D accesses per sampling window (Section 4.2 picks 200).
    sample_limit: int = 200
    #: Executed thread instructions that close a window early.
    insn_sample_limit: int = 100_000
    #: VTA associativity; ``None`` is the cache's (Section 4.1.2).
    vta_assoc: Optional[int] = None
    #: Width of the Protection Distance and of Protected Life.
    pd_bits: int = PD_BITS
    #: Figure 9 step size; ``None`` is the VTA associativity (Section
    #: 4.2, footnote 2).  0 freezes every PD.
    nasc: Optional[int] = None
    #: Bypass a miss whose set has no unprotected line, instead of
    #: stalling it.
    bypass_enabled: bool = True

    def __post_init__(self) -> None:
        # Types first, so a string or float fails here with one line, not
        # at a shift or a comparison deep inside a replay.
        for name in ("sample_limit", "insn_sample_limit", "pd_bits",
                     "vta_assoc", "nasc"):
            value = getattr(self, name)
            if value is None and name in ("vta_assoc", "nasc"):
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # 0 and 1 too: ``--grid bypass_enabled=0,1`` parses to ints.
        if not isinstance(self.bypass_enabled, int) or \
                self.bypass_enabled not in (0, 1):
            raise ValueError(
                f"bypass_enabled must be a bool, 0 or 1, got "
                f"{self.bypass_enabled!r}"
            )
        if self.pd_bits < 1:
            raise ValueError(f"pd_bits must be positive, got {self.pd_bits}")
        if self.sample_limit < 1:
            raise ValueError("sample access limit must be positive")
        if self.insn_sample_limit < 1:
            raise ValueError("sample instruction limit must be positive")
        if self.vta_assoc is not None and self.vta_assoc < 1:
            raise ValueError(
                f"VTA associativity must be positive, got {self.vta_assoc}"
            )
        if self.nasc is not None and self.nasc < 0:
            raise ValueError(f"Nasc must be non-negative, got {self.nasc}")

    @property
    def pl_max(self) -> int:
        """The largest Protected Life (and PD) ``pd_bits`` holds."""
        return (1 << self.pd_bits) - 1

    def resolve(self, assoc: int) -> Tuple[int, int]:
        """``(vta_assoc, nasc)`` on a cache of associativity ``assoc``.

        Both fall back on ``is not None``, never on truthiness: an
        explicit ``nasc=0`` is a valid ablation value and stays 0.
        """
        vta_assoc = self.vta_assoc if self.vta_assoc is not None else assoc
        nasc = self.nasc if self.nasc is not None else vta_assoc
        return vta_assoc, nasc


#: The knob names, in declaration order.
KNOB_NAMES = tuple(f.name for f in fields(ProtectionKnobs))


class ProtectedPolicy(CachePolicy):
    """The reference base of :class:`~repro.core.dlp.DlpPolicy` and
    :class:`~repro.core.global_protection.GlobalProtectionPolicy`;
    ``knobs`` are :class:`ProtectionKnobs` fields."""

    def __init__(self, **knobs: Any) -> None:
        super().__init__()
        self.knobs = ProtectionKnobs(**knobs)
        self.pl_max = self.knobs.pl_max
        self.sampler = SampleWindow(
            self.knobs.sample_limit, self.knobs.insn_sample_limit
        )
        self.vta: Optional[VictimTagArray] = None
        self.nasc = 0
        self.protected_bypasses = 0
        self.pd_updates = {"increase": 0, "decrease": 0, "hold": 0}

    def attach(self, cache: "L1DCache") -> None:
        super().attach(cache)
        vta_assoc, self.nasc = self.knobs.resolve(cache.geometry.assoc)
        self.vta = VictimTagArray(cache.geometry, vta_assoc)
        pd_bits = self.knobs.pd_bits
        if pd_bits != PD_BITS:
            # Ablation PL widths: widen (or narrow) the per-line Protected
            # Life contract to match (no-op unless REPRO_CHECK is set).
            for line in cache.tags.lines():
                set_field_width(line, "protected_life", pd_bits)

    def reset(self) -> None:
        self.sampler.reset()
        if self.vta is not None:
            self.vta.reset()

    # -- protocol hooks ---------------------------------------------------

    def on_set_query(self, cache_set: "CacheSet", access: "MemAccess") -> None:
        for line in cache_set.lines:
            if line.protected_life > 0:
                line.protected_life -= 1

    def select_victim(
        self, cache_set: "CacheSet", access: "MemAccess"
    ) -> Optional["CacheLine"]:
        return protected_lru_victim(cache_set)

    def bypass_on_no_victim(self, access: "MemAccess") -> bool:
        if self.knobs.bypass_enabled:
            self.protected_bypasses += 1
            return True
        return False

    def on_evict(self, line: "CacheLine") -> None:
        assert self.vta is not None, "policy used before attach()"
        self.vta.insert(line.block_addr, line.insn_id)

    def on_access_done(self, access: "MemAccess", outcome: enum.Enum) -> None:
        if self.sampler.tick_access():
            self._end_sample()

    def notify_instructions(self, count: int) -> None:
        if self.sampler.tick_instructions(count):
            self._end_sample()

    def _end_sample(self) -> None:
        """Apply the Figure 9 update to this policy's PD source."""
        raise NotImplementedError
