"""Victim Tag Array behaviour (Section 4.1.2)."""

from repro.cache.tagarray import CacheGeometry
from repro.core import ProtectionKnobs
from repro.core.vta import VictimTagArray


def make_vta(num_sets=4, assoc=2):
    return VictimTagArray(
        CacheGeometry(num_sets=num_sets, assoc=assoc, index_fn="linear"), assoc
    )


class TestInsertProbe:
    def test_probe_empty_misses(self):
        vta = make_vta()
        assert vta.probe(0x10) is None

    def test_insert_then_probe_returns_insn_id(self):
        vta = make_vta()
        vta.insert(0x10, insn_id=42)
        assert vta.probe(0x10) == 42

    def test_probe_consumes_entry(self):
        vta = make_vta()
        vta.insert(0x10, 7)
        assert vta.probe(0x10) == 7
        assert vta.probe(0x10) is None  # hit invalidated the entry

    def test_lru_replacement_within_set(self):
        vta = make_vta(num_sets=4, assoc=2)
        vta.insert(0x0, 1)   # set 0
        vta.insert(0x4, 2)   # set 0
        vta.insert(0x8, 3)   # set 0: evicts the 0x0 entry
        assert vta.probe(0x0) is None
        assert vta.probe(0x4) == 2
        assert vta.probe(0x8) == 3

    def test_reinsert_same_tag_refreshes(self):
        vta = make_vta(num_sets=4, assoc=2)
        vta.insert(0x0, 1)
        vta.insert(0x4, 2)
        vta.insert(0x0, 9)   # re-eviction of same tag: update in place
        vta.insert(0x8, 3)   # should evict 0x4 (LRU), not 0x0
        assert vta.probe(0x0) == 9
        assert vta.probe(0x4) is None

    def test_sets_are_independent(self):
        vta = make_vta(num_sets=4, assoc=1)
        vta.insert(0x0, 1)   # set 0
        vta.insert(0x1, 2)   # set 1
        assert vta.probe(0x0) == 1
        assert vta.probe(0x1) == 2


class TestBookkeeping:
    def test_num_entries(self):
        assert make_vta(4, 2).num_entries == 8

    def test_paper_config_matches_tda(self, baseline_geometry):
        # footnote 2: VTA associativity = cache associativity
        vta_assoc, _ = ProtectionKnobs().resolve(baseline_geometry.assoc)
        vta = VictimTagArray(baseline_geometry, vta_assoc)
        assert vta.assoc == 4
        assert vta.num_entries == 128

    def test_occupancy_and_stats(self):
        vta = make_vta()
        vta.insert(0x0, 0)
        vta.insert(0x1, 0)
        assert vta.occupancy() == 2
        vta.probe(0x0)
        assert vta.occupancy() == 1
        assert vta.hits == 1
        assert vta.inserts == 2
        assert vta.probes == 1

    def test_reset(self):
        vta = make_vta()
        vta.insert(0x0, 5)
        vta.reset()
        assert vta.occupancy() == 0
        assert vta.probe(0x0) is None
