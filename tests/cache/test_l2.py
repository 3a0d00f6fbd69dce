"""L2 slice: read/merge/fill/write flows."""

import random

import pytest

from repro.cache.l2 import L2Cache, L2Stats
from repro.cache.line import LineState
from repro.cache.tagarray import CacheGeometry, TagArray


def make_l2():
    return L2Cache(CacheGeometry(num_sets=4, assoc=2, index_fn="linear"))


class TestReadFlow:
    def test_cold_read_misses(self):
        l2 = make_l2()
        assert l2.read(0x10, "w0") == "miss"
        assert l2.stats.dram_reads == 1

    def test_second_read_merges(self):
        l2 = make_l2()
        l2.read(0x10, "w0")
        assert l2.read(0x10, "w1") == "merged"
        assert l2.stats.dram_reads == 1  # no second DRAM read

    def test_fill_returns_all_waiters(self):
        l2 = make_l2()
        l2.read(0x10, "w0")
        l2.read(0x10, "w1")
        assert l2.fill(0x10) == ["w0", "w1"]
        assert l2.pending_count() == 0

    def test_read_after_fill_hits(self):
        l2 = make_l2()
        l2.read(0x10, None)
        l2.fill(0x10)
        assert l2.read(0x10, None) == "hit"
        assert l2.stats.hit_rate == 0.5

    def test_lru_eviction_in_slice(self):
        l2 = make_l2()
        for block in (0x0, 0x4, 0x8):  # all map to set 0 (linear, 4 sets)
            l2.read(block, None)
            l2.fill(block)
        assert l2.stats.evictions == 1
        assert l2.read(0x0, None) == "miss"  # 0x0 was the LRU victim

    def test_default_geometry_is_table1_slice(self):
        l2 = L2Cache()
        assert l2.geometry.num_sets == 64
        assert l2.geometry.assoc == 8
        assert l2.geometry.size_bytes == 64 * 1024


class TestWriteFlow:
    def test_write_goes_to_dram(self):
        l2 = make_l2()
        l2.write(0x10)
        assert l2.stats.dram_writes == 1

    def test_write_does_not_allocate(self):
        l2 = make_l2()
        l2.write(0x10)
        assert l2.read(0x10, None) == "miss"

    def test_write_touches_present_line(self):
        l2 = make_l2()
        l2.read(0x0, None)
        l2.fill(0x0)
        l2.read(0x4, None)
        l2.fill(0x4)
        l2.write(0x0)  # refresh 0x0's recency
        l2.read(0x8, None)
        l2.fill(0x8)   # should evict 0x4, not 0x0
        assert l2.read(0x0, None) == "hit"


class ReferenceL2:
    """The tag-array L2 slice the recency-dict model replaced, kept as
    the oracle: LRU by stamp over ``CacheLine`` objects."""

    def __init__(self, geometry):
        self.geometry = geometry
        self.tags = TagArray(geometry)
        self.stats = L2Stats()
        self._pending = {}

    def read(self, block_addr, waiter=None):
        self.stats.reads += 1
        line = self.tags.probe(block_addr)
        if line is not None and line.state is LineState.VALID:
            self.stats.hits += 1
            self.tags.touch(line)
            return "hit"
        if block_addr in self._pending:
            self.stats.merged += 1
            self._pending[block_addr].append(waiter)
            return "merged"
        self.stats.misses += 1
        self.stats.dram_reads += 1
        self._pending[block_addr] = [waiter]
        return "miss"

    def fill(self, block_addr):
        waiters = self._pending.pop(block_addr, [None])
        cache_set = self.tags.set_for(block_addr)
        tag = self.geometry.tag(block_addr)
        if cache_set.find(tag) is None:
            victim = cache_set.find_invalid()
            if victim is None:
                candidates = cache_set.replaceable()
                victim = min(candidates, key=lambda l: l.lru_stamp)
                self.stats.evictions += 1
            victim.invalidate()
            victim.reserve(tag, block_addr, 0, self.tags.next_stamp())
            victim.fill(self.tags.next_stamp())
        return waiters

    def write(self, block_addr):
        self.stats.writes += 1
        self.stats.dram_writes += 1
        line = self.tags.probe(block_addr)
        if line is not None and line.state is LineState.VALID:
            self.tags.touch(line)

    def pending_count(self):
        return len(self._pending)


GEOMETRIES = {
    "table1": CacheGeometry(num_sets=64, assoc=8, line_size=128, index_fn="linear"),
    "4x2": CacheGeometry(num_sets=4, assoc=2, line_size=128, index_fn="linear"),
}


class TestMatchesReference:
    """Random read/fill/write streams: the slice returns the same
    values and waiters, and keeps the same counters, as the tag-array
    model after every operation."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("geometry", list(GEOMETRIES))
    def test_random_stream(self, geometry, seed):
        geom = GEOMETRIES[geometry]
        rng = random.Random(seed)
        # About twice the slice's capacity, so sets overflow and evict.
        blocks = range(2 * geom.num_sets * geom.assoc)
        l2, ref = L2Cache(geom), ReferenceL2(geom)
        outstanding = []
        for step in range(4000):
            kind = rng.random()
            if kind < 0.45:
                block = rng.choice(blocks)
                waiter = f"w{step}"
                got, want = l2.read(block, waiter), ref.read(block, waiter)
                if want == "miss":
                    outstanding.append(block)
            elif kind < 0.8 and outstanding:
                # fill an in-flight read, releasing any merged waiters
                block = outstanding.pop(rng.randrange(len(outstanding)))
                got, want = l2.fill(block), ref.fill(block)
            elif kind < 0.9:
                # fill nothing asked for: often a block already resident
                block = rng.choice(blocks)
                if block in outstanding:
                    continue
                got, want = l2.fill(block), ref.fill(block)
            else:
                block = rng.choice(blocks)
                got, want = l2.write(block), ref.write(block)
            assert got == want, f"step {step}: block {block}"
            assert l2.stats.as_dict() == ref.stats.as_dict(), f"step {step}"
            assert l2.pending_count() == ref.pending_count()
        stats = l2.stats
        assert stats.hits and stats.merged and stats.evictions
