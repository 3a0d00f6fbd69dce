"""Hardware-cost model for the DLP extensions (paper Section 4.3).

The paper costs the scheme at 1264 extra bytes against a 16896-byte
baseline cache array (16 KB of data plus 512 B of tags), i.e. 7.48 %.
This module recomputes that from first principles so a unit test pins the
published numbers and the ablation benches can cost variants (different
VTA associativity, PL width, PDPT size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.cache.tagarray import CacheGeometry
from repro.core.pdpt import INSN_ID_BITS, PD_BITS, PDPT_ENTRIES, TDA_HIT_BITS, VTA_HIT_BITS
from repro.core.protected import ProtectionKnobs

TAG_BITS = 32  # address tag width used by the paper's VTA costing


@dataclass(frozen=True)
class OverheadReport:
    """Byte-level breakdown of the DLP storage additions."""

    tda_extension_bytes: int
    vta_bytes: int
    pdpt_bytes: int
    baseline_bytes: int

    @property
    def total_extra_bytes(self) -> int:
        return self.tda_extension_bytes + self.vta_bytes + self.pdpt_bytes

    @property
    def overhead_fraction(self) -> float:
        return self.total_extra_bytes / self.baseline_bytes

    def rows(self) -> List[Tuple[str, int]]:
        """(component, bytes) rows for the report renderer."""
        return [
            ("TDA extension (insn ID + PL)", self.tda_extension_bytes),
            ("Victim Tag Array", self.vta_bytes),
            ("PDPT", self.pdpt_bytes),
            ("total extra", self.total_extra_bytes),
            ("baseline cache", self.baseline_bytes),
        ]


def _bits_to_bytes(bits: int) -> int:
    return bits // 8 + (1 if bits % 8 else 0)


def compute_overhead(
    geometry: CacheGeometry | None = None,
    vta_assoc: int | None = None,
    insn_id_bits: int = INSN_ID_BITS,
    pl_bits: int = PD_BITS,
    pdpt_entries: int = PDPT_ENTRIES,
    tda_hit_bits: int = TDA_HIT_BITS,
    vta_hit_bits: int = VTA_HIT_BITS,
    pd_bits: int = PD_BITS,
    tag_bits: int = TAG_BITS,
) -> OverheadReport:
    """Cost the DLP additions for a cache geometry (defaults = Table 1).

    Matches the paper's arithmetic exactly for the baseline config:

    * TDA extension: (7 + 4) bits x 128 lines  = 1408 bits = 176 B
    * VTA:          (32 + 7) bits x 128 entries = 4992 bits = 624 B
    * PDPT:  (7 + 8 + 10 + 4) bits x 128 entries = 3712 bits = 464 B
    * total: 1264 B over a 16896 B baseline -> 7.48 %
    """
    geometry = geometry or CacheGeometry(num_sets=32, assoc=4, line_size=128)
    num_lines = geometry.num_sets * geometry.assoc
    vta_ways, _ = ProtectionKnobs(vta_assoc=vta_assoc).resolve(geometry.assoc)
    vta_entries = geometry.num_sets * vta_ways

    tda_ext_bits = (insn_id_bits + pl_bits) * num_lines
    vta_bits = (tag_bits + insn_id_bits) * vta_entries
    pdpt_bits = (insn_id_bits + tda_hit_bits + vta_hit_bits + pd_bits) * pdpt_entries

    # The paper's 16896-byte baseline = data array + 32-bit tags per line.
    baseline_bytes = geometry.size_bytes + _bits_to_bytes(tag_bits * num_lines)

    return OverheadReport(
        tda_extension_bytes=_bits_to_bytes(tda_ext_bits),
        vta_bytes=_bits_to_bytes(vta_bits),
        pdpt_bytes=_bits_to_bytes(pdpt_bits),
        baseline_bytes=baseline_bytes,
    )
