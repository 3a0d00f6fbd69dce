"""Dynamic Line Protection — the paper's contribution (Section 4).

The policy composes the three structures of Figure 8:

* the TDA extension fields on every line (instruction ID + Protected
  Life), maintained on hits, allocations and set queries;
* the Victim Tag Array, fed by evictions and probed on misses;
* the Protection Distance Prediction Table, which accumulates per-
  instruction TDA/VTA hits and is recomputed by the Figure 9 flow at the
  end of every sampling period.

DLP's own protocol behaviour sits on
:class:`~repro.core.protected.ProtectedPolicy`, which it shares with
Global-Protection (knobs, VTA, sampler, PL decay, protected-LRU victim
choice, bypass and sampling tick):

* a hit credits the PDPT's TDA-hit counter of the *previous* instruction
  recorded on the line, then re-tags the line with the accessing
  instruction and rewrites its PL from that instruction's current PD;
* a miss probes the VTA and credits a hit to the instruction stored in
  the victim entry;
* an allocated line's PL is the allocating instruction's PD;
* at a sample's end, :func:`~repro.core.protection.run_pd_update`
  recomputes the per-instruction PDs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.core.pdpt import PredictionTable
from repro.core.protected import ProtectedPolicy
from repro.core.protection import run_pd_update

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.l1d import MemAccess
    from repro.cache.line import CacheLine


class DlpPolicy(ProtectedPolicy):
    name = "dlp"

    def __init__(self, **knobs: Any) -> None:
        super().__init__(**knobs)
        self.pdpt = PredictionTable(pd_bits=self.knobs.pd_bits)

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        # In-place PDPT reset: the base-class contract says statistics
        # survive reset(), and the sampler/VTA already honour it — the
        # PDPT's lifetime activity markers (and any ablation contract
        # widths installed on its entries) must survive too.
        self.pdpt.reset()
        super().reset()

    # -- protocol hooks ---------------------------------------------------

    def on_hit(self, line: "CacheLine", access: "MemAccess", reserved: bool) -> None:
        if access.is_write:
            return
        if reserved:
            # Pending hit: reuse was captured by the in-flight line.
            # Attribute it to the instruction that allocated / last
            # touched the pending line, then hand the line over.
            self.pdpt.record_tda_hit(line.pending_insn_id)
            line.pending_insn_id = access.insn_id
            return
        self.pdpt.record_tda_hit(line.insn_id)
        line.insn_id = access.insn_id
        line.grant_protection(self.pdpt.pd(access.insn_id), self.pl_max)

    def on_miss(self, access: "MemAccess") -> None:
        if access.is_write:
            return
        assert self.vta is not None, "policy used before attach()"
        owner = self.vta.probe(access.block_addr)
        if owner is not None:
            self.pdpt.record_vta_hit(owner)

    def on_allocate(self, line: "CacheLine", access: "MemAccess") -> None:
        line.grant_protection(self.pdpt.pd(access.insn_id), self.pl_max)

    # -- internals ---------------------------------------------------------

    def _end_sample(self) -> None:
        result = run_pd_update(self.pdpt, self.nasc)
        self.pd_updates[result.path] += 1

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "protected_bypasses": self.protected_bypasses,
            "samples_completed": self.sampler.samples_completed,
            "vta_hits": self.vta.hits if self.vta else 0,
            "vta_inserts": self.vta.inserts if self.vta else 0,
        }
        for path, count in self.pd_updates.items():
            out[f"pd_{path}"] = count
        return out

    def pd_snapshot(self) -> Dict[int, Dict[str, int]]:
        """Current per-instruction PDPT contents (for reports/examples)."""
        return self.pdpt.snapshot()
