"""Property tests for the reuse primitives behind Figs. 3, 4 and 7.

``RddHistogram.merge`` must be a commutative monoid and ``bucket_of``
must honour the paper's Fig. 3 range boundaries exactly — the figures,
``repro profile`` and the ``--rdd`` trace report all aggregate through
these.  ``ReuseProfiler.reuse_misses`` must count exactly the reuses an
LRU cache of each associativity misses (Fig. 4).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.reuse import (
    RD_RANGES,
    STACK_DEPTH,
    RddHistogram,
    ReuseProfiler,
    bucket_of,
)
from repro.cache.tagarray import CacheGeometry

TRIALS = 25


def random_histogram(rng: random.Random) -> RddHistogram:
    return RddHistogram([rng.randrange(0, 1000) for _ in range(4)])


def random_profiler(rng: random.Random) -> ReuseProfiler:
    profiler = ReuseProfiler(CacheGeometry(num_sets=4, assoc=4))
    for _ in range(rng.randrange(0, 200)):
        profiler.observe(rng.randrange(0, 64), pc=rng.randrange(0, 8))
    return profiler


class TestBucketBoundaries:
    @pytest.mark.parametrize("rd,expected", [
        (1, 0), (4, 0),          # RD 1~4
        (5, 1), (8, 1),          # RD 5~8
        (9, 2), (64, 2),         # RD 9~64
        (65, 3), (10**9, 3),     # RD >65
    ])
    def test_figure3_boundaries(self, rd, expected):
        assert bucket_of(rd) == expected

    def test_ranges_and_bucketing_agree(self):
        for idx, (lo, hi) in enumerate(RD_RANGES):
            assert bucket_of(lo) == idx
            assert bucket_of(min(hi, 10**12)) == idx
            if idx + 1 < len(RD_RANGES):
                assert bucket_of(hi + 1) == idx + 1

    def test_ranges_tile_the_positive_integers(self):
        assert RD_RANGES[0][0] == 1
        for (_, hi), (lo, _) in zip(RD_RANGES, RD_RANGES[1:]):
            assert lo == hi + 1


class TestHistogramMerge:
    def test_merge_is_commutative(self):
        rng = random.Random(0)
        for _ in range(TRIALS):
            a, b = random_histogram(rng), random_histogram(rng)
            ab = RddHistogram(list(a.counts))
            ab.merge(b)
            ba = RddHistogram(list(b.counts))
            ba.merge(a)
            assert ab.counts == ba.counts

    def test_merge_is_associative(self):
        rng = random.Random(1)
        for _ in range(TRIALS):
            a, b, c = (random_histogram(rng) for _ in range(3))
            left = RddHistogram(list(a.counts))
            left.merge(b)
            left.merge(c)
            bc = RddHistogram(list(b.counts))
            bc.merge(c)
            right = RddHistogram(list(a.counts))
            right.merge(bc)
            assert left.counts == right.counts

    def test_merge_preserves_totals(self):
        rng = random.Random(2)
        for _ in range(TRIALS):
            a, b = random_histogram(rng), random_histogram(rng)
            expected = a.total + b.total
            a.merge(b)
            assert a.total == expected

    def test_empty_histogram_is_identity(self):
        rng = random.Random(3)
        for _ in range(TRIALS):
            a = random_histogram(rng)
            before = list(a.counts)
            a.merge(RddHistogram())
            assert a.counts == before

    def test_add_matches_bucket_of(self):
        rng = random.Random(4)
        hist = RddHistogram()
        shadow = [0, 0, 0, 0]
        for _ in range(500):
            rd = rng.randrange(1, 200)
            hist.add(rd)
            shadow[bucket_of(rd)] += 1
        assert hist.counts == shadow

    def test_fractions_sum_to_one_when_populated(self):
        rng = random.Random(5)
        for _ in range(TRIALS):
            hist = random_histogram(rng)
            if hist.total:
                assert sum(hist.fractions()) == pytest.approx(1.0)
        assert RddHistogram().fractions() == [0.0, 0.0, 0.0, 0.0]


class TestProfilerMerge:
    def test_merge_preserves_every_total(self):
        rng = random.Random(6)
        for _ in range(10):
            a, b = random_profiler(rng), random_profiler(rng)
            expected = {
                "accesses": a.accesses + b.accesses,
                "compulsory": a.compulsory + b.compulsory,
                "reuses": a.reuses + b.reuses,
                "overall": a.overall.total + b.overall.total,
            }
            per_pc = {}
            for src in (a, b):
                for pc, hist in src.per_pc.items():
                    per_pc[pc] = per_pc.get(pc, 0) + hist.total
            a.merge(b)
            assert a.accesses == expected["accesses"]
            assert a.compulsory == expected["compulsory"]
            assert a.reuses == expected["reuses"]
            assert a.overall.total == expected["overall"]
            assert {pc: h.total for pc, h in a.per_pc.items()} == per_pc

    def test_merge_is_commutative_on_histograms(self):
        rng = random.Random(7)
        for _ in range(10):
            a, b = random_profiler(rng), random_profiler(rng)
            ab = ReuseProfiler(a.geometry)
            ab.merge(a)
            ab.merge(b)
            ba = ReuseProfiler(a.geometry)
            ba.merge(b)
            ba.merge(a)
            assert ab.overall.counts == ba.overall.counts
            assert {pc: h.counts for pc, h in ab.per_pc.items()} == \
                {pc: h.counts for pc, h in ba.per_pc.items()}

    def test_merge_does_not_alias_source_histograms(self):
        a = ReuseProfiler(CacheGeometry(num_sets=1, assoc=4))
        b = ReuseProfiler(CacheGeometry(num_sets=1, assoc=4))
        for block in (0, 0):     # one reuse attributed to pc 5
            b.observe(block, pc=5)
        a.merge(b)
        a.per_pc[5].add(1)
        assert b.per_pc[5].total == 1   # b must be untouched


class LruTagCache:
    """Oracle: ``assoc`` ways per set, each holding a block and its last
    use time; a miss fills a free way or evicts the least recently used
    one.  Counts the reuses (touches after a block's first) it misses."""

    def __init__(self, geometry: CacheGeometry, assoc: int) -> None:
        self.geometry = geometry
        self.assoc = assoc
        self.ways = [dict() for _ in range(geometry.num_sets)]
        self.seen: set = set()
        self.time = 0
        self.reuse_misses = 0

    def access(self, block: int) -> None:
        self.time += 1
        ways = self.ways[self.geometry.set_index(block)]
        if block not in ways:
            if block in self.seen:
                self.reuse_misses += 1
            if len(ways) == self.assoc:
                del ways[min(ways, key=ways.get)]
        self.seen.add(block)
        ways[block] = self.time


def random_stream(rng: random.Random, length: int) -> list:
    """Hot blocks reused at short range over a cold pool wide enough to
    push blocks past the stack's depth in every set."""
    hot = rng.sample(range(4096), 12)
    return [rng.choice(hot) if rng.random() < 0.5 else rng.randrange(0, 400)
            for _ in range(length)]


class TestReuseMissesMatchLru:
    @pytest.mark.parametrize("index_fn", ["linear", "hash"])
    def test_every_associativity_matches_the_oracle(self, index_fn):
        rng = random.Random(8)
        geometry = CacheGeometry(num_sets=4, assoc=4, index_fn=index_fn)
        for _ in range(6):
            stream = random_stream(rng, 1500)
            profiler = ReuseProfiler(geometry)
            oracles = [LruTagCache(geometry, assoc)
                       for assoc in range(1, STACK_DEPTH + 1)]
            for block in stream:
                profiler.observe(block)
                for oracle in oracles:
                    oracle.access(block)
            assert profiler.stack_positions[STACK_DEPTH] > 0
            for oracle in oracles:
                assert profiler.reuse_misses(oracle.assoc) == \
                    oracle.reuse_misses, oracle.assoc

    def test_cycle_one_past_the_stack_always_misses(self):
        geometry = CacheGeometry(num_sets=1, assoc=4)
        profiler = ReuseProfiler(geometry)
        oracle = LruTagCache(geometry, STACK_DEPTH)
        for _ in range(3):
            for block in range(STACK_DEPTH + 1):
                profiler.observe(block)
                oracle.access(block)
        assert profiler.reuse_misses(STACK_DEPTH) == profiler.reuses \
            == oracle.reuse_misses == 2 * (STACK_DEPTH + 1)

    def test_merge_matches_the_oracle_per_stream(self):
        rng = random.Random(9)
        geometry = CacheGeometry(num_sets=4, assoc=4, index_fn="linear")
        merged = ReuseProfiler(geometry)
        expected = [0] * STACK_DEPTH
        for _ in range(3):
            stream = random_stream(rng, 600)
            part = ReuseProfiler(geometry)
            for block in stream:
                part.observe(block)
            merged.merge(part)
            for assoc in range(1, STACK_DEPTH + 1):
                oracle = LruTagCache(geometry, assoc)
                for block in stream:
                    oracle.access(block)
                expected[assoc - 1] += oracle.reuse_misses
        assert [merged.reuse_misses(a) for a in range(1, STACK_DEPTH + 1)] \
            == expected
