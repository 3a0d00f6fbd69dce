"""Reuse-distance profiler (Section 3.1 / Fig. 2 semantics)."""

import pytest

from repro.analysis.reuse import (
    RD_LABELS,
    RD_RANGES,
    STACK_DEPTH,
    RddHistogram,
    ReuseProfiler,
    bucket_of,
    rd_of_sequence,
)
from repro.cache.tagarray import CacheGeometry
from repro.gpu.config import GPUConfig


def one_set():
    return CacheGeometry(num_sets=1, assoc=2)


class TestFig2Example:
    def test_paper_worked_example(self):
        """Addr0 Addr1 Addr2 Addr0 in a 2-way set: RD of Addr0 is 3."""
        rds = rd_of_sequence([0, 1, 2, 0], one_set())
        assert rds == [None, None, None, 3]

    def test_rd_exceeding_assoc_means_lru_miss(self):
        # RD 3 > associativity 2, so the paper's Fig. 2 access misses
        assert rd_of_sequence([0, 1, 2, 0], one_set())[-1] > 2

    def test_back_to_back_reuse_is_rd_1(self):
        assert rd_of_sequence([5, 5], one_set()) == [None, 1]


class TestBuckets:
    def test_ranges_match_paper_legend(self):
        assert RD_RANGES[0] == (1, 4)
        assert RD_RANGES[1] == (5, 8)
        assert RD_RANGES[2] == (9, 64)
        assert len(RD_LABELS) == 4

    @pytest.mark.parametrize("rd,bucket", [
        (1, 0), (4, 0), (5, 1), (8, 1), (9, 2), (64, 2), (65, 3), (10**6, 3),
    ])
    def test_bucket_boundaries(self, rd, bucket):
        assert bucket_of(rd) == bucket


class TestProfiler:
    def test_rds_are_per_set(self):
        # accesses to other sets must not inflate a line's RD
        geo = CacheGeometry(num_sets=2, assoc=2, index_fn="linear")
        p = ReuseProfiler(geo)
        p.observe(0)   # set 0
        p.observe(1)   # set 1 (does not count for block 0)
        p.observe(1)
        rd = p.observe(0)
        assert rd == 1

    def test_compulsory_counted_separately(self):
        p = ReuseProfiler(one_set())
        p.observe(0)
        p.observe(1)
        p.observe(0)
        assert p.compulsory == 2
        assert p.reuses == 1

    def test_per_pc_attribution_to_previous_toucher(self):
        p = ReuseProfiler(one_set())
        p.observe(0, pc=0xA)
        p.observe(0, pc=0xB)   # reuse attributed to 0xA
        p.observe(0, pc=0xC)   # reuse attributed to 0xB
        assert p.per_pc[0xA].total == 1
        assert p.per_pc[0xB].total == 1
        assert 0xC not in p.per_pc

    def test_fractions_sum_to_one(self):
        p = ReuseProfiler(one_set())
        for block in [0, 1, 0, 1, 0, 2, 0]:
            p.observe(block)
        assert sum(p.overall_fractions()) == pytest.approx(1.0)

    def test_empty_profile_fractions_are_zero(self):
        assert ReuseProfiler().overall_fractions() == [0.0] * 4

    def test_merge(self):
        a, b = ReuseProfiler(one_set()), ReuseProfiler(one_set())
        a.observe(0); a.observe(0)
        b.observe(1); b.observe(1); b.observe(1)
        a.merge(b)
        assert a.reuses == 3
        assert a.compulsory == 2
        assert a.accesses == 5


class TestReuseMisses:
    """Fig. 4's reuse-data misses, read off LRU stack positions."""

    def geo(self):
        return CacheGeometry(num_sets=2, assoc=2, index_fn="linear")

    def test_compulsory_not_in_reuse_rate(self):
        p = ReuseProfiler(self.geo())
        p.observe(0)
        p.observe(2)
        assert p.reuses == 0
        assert p.reuse_misses(1) == 0

    def test_captured_reuse(self):
        p = ReuseProfiler(self.geo())
        p.observe(0)
        p.observe(0)
        assert p.reuses == 1
        assert p.reuse_misses(1) == 0

    def test_thrashed_reuse_counts_as_reuse_miss(self):
        p = ReuseProfiler(self.geo())
        p.observe(0)   # set 0
        p.observe(2)   # set 0, evicts 0 from one way
        p.observe(0)   # reuse at stack position 1
        assert p.reuse_misses(1) == p.reuses == 1
        assert p.reuse_misses(2) == 0

    def test_larger_assoc_reduces_reuse_misses(self):
        p = ReuseProfiler(self.geo())
        for block in [0, 2, 0, 2, 0, 2]:
            p.observe(block)
        assert p.reuse_misses(2) < p.reuse_misses(1)

    def test_merge_adds_stack_positions(self):
        a, b = ReuseProfiler(self.geo()), ReuseProfiler(self.geo())
        a.observe(0)
        a.observe(0)
        for block in (1, 3, 1):   # set 1: a reuse at position 1
            b.observe(block)
        a.merge(b)
        assert (a.accesses, a.compulsory, a.reuses) == (5, 3, 2)
        assert a.reuse_misses(1) == 1
        assert a.reuse_misses(2) == 0

    def test_stack_is_as_deep_as_the_largest_l1d(self):
        assert GPUConfig().with_l1d_size_kb(64).l1d.assoc == STACK_DEPTH

    @pytest.mark.parametrize("assoc", [0, STACK_DEPTH + 1])
    def test_assoc_outside_the_stack_rejected(self, assoc):
        with pytest.raises(ValueError):
            ReuseProfiler(self.geo()).reuse_misses(assoc)


class TestHistogram:
    def test_merge_adds_counts(self):
        h1, h2 = RddHistogram(), RddHistogram()
        h1.add(1)
        h2.add(70)
        h1.merge(h2)
        assert h1.counts == [1, 0, 0, 1]

    def test_fractions(self):
        h = RddHistogram()
        for rd in (1, 2, 9):
            h.add(rd)
        assert h.fractions() == pytest.approx([2 / 3, 0, 1 / 3, 0])
