"""Global-Protection comparator (paper Section 5.3).

An emulation of PDP [Duong et al., MICRO'12] on the GPU L1D: the same
VTA, the same sampling window and the same Figure 9 decision structure as
DLP, but with a *single* Protection Distance applied to every line —
"instead of an instruction-based PD like the left-most path in Figure 9,
this scheme computes a global PD for all cache entries."  Everything but
that PD source, the program-level hit crediting and the update at a
sample's end comes from :class:`~repro.core.protected.ProtectedPolicy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.check.contracts import BitField, hw_checked, set_field_width
from repro.core.pdpt import PD_BITS
from repro.core.protected import ProtectedPolicy
from repro.core.protection import run_global_pd_update

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.l1d import MemAccess
    from repro.cache.line import CacheLine


@hw_checked(global_pd=BitField(PD_BITS))
class GlobalProtectionPolicy(ProtectedPolicy):
    name = "global_protection"

    def __init__(self, **knobs: Any) -> None:
        super().__init__(**knobs)
        if self.knobs.pd_bits != PD_BITS:
            set_field_width(self, "global_pd", self.knobs.pd_bits)
        self.global_pd = 0
        self.global_tda_hits = 0
        self.global_vta_hits = 0

    def reset(self) -> None:
        super().reset()
        self.global_pd = 0
        self.global_tda_hits = 0
        self.global_vta_hits = 0

    # -- protocol hooks ---------------------------------------------------

    def on_hit(self, line: "CacheLine", access: "MemAccess", reserved: bool) -> None:
        if access.is_write:
            return
        self.global_tda_hits += 1
        if not reserved:
            line.grant_protection(self.global_pd, self.pl_max)

    def on_miss(self, access: "MemAccess") -> None:
        if access.is_write:
            return
        assert self.vta is not None, "policy used before attach()"
        if self.vta.probe(access.block_addr) is not None:
            self.global_vta_hits += 1

    def on_allocate(self, line: "CacheLine", access: "MemAccess") -> None:
        line.grant_protection(self.global_pd, self.pl_max)

    def _end_sample(self) -> None:
        self.global_pd, path = run_global_pd_update(
            self.global_pd,
            self.pl_max,
            self.nasc,
            self.global_tda_hits,
            self.global_vta_hits,
        )
        self.pd_updates[path] += 1
        self.global_tda_hits = 0
        self.global_vta_hits = 0

    def stats(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "protected_bypasses": self.protected_bypasses,
            "samples_completed": self.sampler.samples_completed,
            "global_pd": self.global_pd,
            "vta_hits": self.vta.hits if self.vta else 0,
        }
        for path, count in self.pd_updates.items():
            out[f"pd_{path}"] = count
        return out
