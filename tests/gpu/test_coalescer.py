"""Memory coalescing unit."""

import numpy as np
import pytest

from repro.gpu.coalescer import coalesce, coalesce_count
from repro.gpu.isa import AffineLanes, MemOp
from repro.workloads import ALL_APPS, make_workload
from repro.workloads.base import LINE, WARP

LINE_SIZES = (32, 64, 128, 256, 512)


def reference_coalesce(addrs, line_size=128):
    """The ``np.unique`` coalescer, kept as the reference: unique blocks
    in first-touch order via the sorted first-occurrence indices."""
    shift = line_size.bit_length() - 1
    if isinstance(addrs, np.ndarray):
        blocks = addrs.astype(np.int64, copy=False) >> shift
        _, first_idx = np.unique(blocks, return_index=True)
        return [int(blocks[i]) for i in np.sort(first_idx)]
    seen = set()
    out = []
    for addr in addrs:
        block = addr >> shift
        if block not in seen:
            seen.add(block)
            out.append(block)
    return out


def random_warps(dtype, seed):
    """Warp accesses of 1-32 lanes, from dense (many lanes per line) to
    scattered, so both the dedup and the ordering are exercised."""
    rng = np.random.default_rng(seed)
    high = np.iinfo(dtype).max if dtype != np.int64 else 1 << 40
    for lanes in (1, 2, 7, 16, 31, 32):
        for span in (64, 4096, 1 << 20, high):
            base = int(rng.integers(0, high - min(span, high - 1)))
            offsets = rng.integers(0, min(span, high - base), size=lanes)
            yield (base + offsets).astype(dtype)


class TestCoalesce:
    def test_fully_coalesced_warp_is_one_request(self):
        addrs = np.arange(32) * 4  # 32 consecutive words, one line
        assert coalesce(addrs, 128) == [0]

    def test_straddling_two_lines(self):
        addrs = np.arange(32) * 4 + 64  # crosses a line boundary
        assert coalesce(addrs, 128) == [0, 1]

    def test_fully_divergent(self):
        addrs = np.arange(32) * 128  # one line per lane
        assert coalesce(addrs, 128) == list(range(32))

    def test_broadcast_is_one_request(self):
        assert coalesce(np.full(32, 4096), 128) == [32]

    def test_first_touch_order_preserved(self):
        addrs = np.array([512, 0, 512, 128])
        assert coalesce(addrs, 128) == [4, 0, 1]

    def test_python_list_input(self):
        assert coalesce([0, 4, 128, 4], 128) == [0, 1]

    def test_rejects_bad_line_size(self):
        with pytest.raises(ValueError):
            coalesce([0], 100)

    def test_line_size_parameter(self):
        addrs = np.arange(8) * 64
        assert len(coalesce(addrs, 64)) == 8
        assert len(coalesce(addrs, 512)) == 1


class TestCoalesceCount:
    def test_matches_coalesce_length(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            addrs = rng.integers(0, 1 << 20, size=32)
            assert coalesce_count(addrs) == len(coalesce(addrs))

    def test_list_input(self):
        assert coalesce_count([0, 4, 256]) == 2


class TestMatchesReference:
    """The coalescer equals the ``np.unique`` implementation it replaced."""

    @pytest.mark.parametrize("line_size", LINE_SIZES)
    @pytest.mark.parametrize("dtype", (np.int64, np.int32, np.uint32))
    def test_random_arrays(self, dtype, line_size):
        for addrs in random_warps(dtype, seed=line_size):
            want = reference_coalesce(addrs, line_size)
            got = coalesce(addrs, line_size)
            assert got == want
            assert all(type(block) is int for block in got)
            assert coalesce_count(addrs, line_size) == len(want)

    @pytest.mark.parametrize("line_size", LINE_SIZES)
    def test_python_lists(self, line_size):
        for addrs in random_warps(np.int64, seed=line_size + 1):
            lanes = addrs.tolist()
            want = reference_coalesce(lanes, line_size)
            assert coalesce(lanes, line_size) == want
            assert coalesce(addrs, line_size) == want
            assert coalesce_count(lanes, line_size) == len(want)

    @pytest.mark.parametrize("lanes", (1, 5, 17, 32))
    def test_partial_warps(self, lanes):
        addrs = (np.arange(lanes, dtype=np.int64) * 200)[::-1]
        for line_size in LINE_SIZES:
            assert coalesce(addrs, line_size) == reference_coalesce(addrs, line_size)


class TestAffineLanes:
    """Closed-form folding of a lane descriptor equals the reference
    applied to the lane array the descriptor stands for."""

    STRIDES = (0, 1, 4, 100, 127, 128, 129, 256, 1000, -4, -128)
    #: Aligned, unaligned and just-below-a-boundary bases; high enough
    #: that negative strides keep every lane address positive.
    BASES = (1 << 20, (1 << 20) + 4, (1 << 20) + 127, (1 << 24) + 4000 + 60)

    def test_behaves_like_its_lane_array(self):
        desc = AffineLanes(np.int64(4096), 12, 5)
        lanes = [4096 + 12 * i for i in range(5)]
        assert len(desc) == 5
        assert list(desc) == lanes
        assert desc.tolist() == lanes
        assert all(type(a) is int for a in desc.tolist())
        array = np.asarray(desc)
        assert array.dtype == np.int64
        assert array.tolist() == lanes
        assert np.asarray(desc, dtype=np.int32).dtype == np.int32
        assert type(desc.base) is int

    @pytest.mark.parametrize("line_size", LINE_SIZES)
    @pytest.mark.parametrize("stride", STRIDES)
    def test_matches_reference(self, stride, line_size):
        for base in self.BASES:
            for count in range(1, WARP + 1):
                for typed_base in (base, np.int64(base)):
                    desc = AffineLanes(typed_base, stride, count)
                    want = reference_coalesce(np.asarray(desc), line_size)
                    got = coalesce(desc, line_size)
                    assert got == want, (base, stride, count)
                    assert all(type(block) is int for block in got)

    def test_empty_descriptor_has_no_blocks(self):
        for stride in (0, 4, 200):
            assert coalesce(AffineLanes(4096, stride, 0)) == []


def materialized_ops(workload, ctas=None):
    """Every memory op of the workload's kernels, optionally only the
    first ``ctas`` CTAs of each."""
    for kernel in workload.kernels():
        for cta in range(min(ctas or kernel.num_ctas, kernel.num_ctas)):
            for w in range(kernel.warps_per_cta):
                for op in kernel.warp_trace(cta, w):
                    yield op


@pytest.mark.parametrize("abbr", ALL_APPS)
class TestEveryWorkload:
    """The workloads' own accesses, descriptor and array alike, fold to
    the reference's blocks."""

    def test_ops_match_reference(self, abbr):
        ops = [
            op for op in materialized_ops(make_workload(abbr, scale=0.1), ctas=4)
            if isinstance(op, MemOp)
        ]
        assert ops
        for op in ops:
            want = reference_coalesce(np.asarray(op.addrs, dtype=np.int64), LINE)
            assert coalesce(op.addrs, LINE) == want

    def test_static_stats_match_materialized_totals(self, abbr):
        thread_insns = mem_ops = mem_requests = 0
        pcs = set()
        for op in materialized_ops(make_workload(abbr, scale=0.1)):
            if isinstance(op, MemOp):
                lanes = np.asarray(op.addrs, dtype=np.int64)
                thread_insns += lanes.size
                mem_ops += 1
                mem_requests += len(reference_coalesce(lanes, LINE))
                pcs.add(op.pc)
            else:
                thread_insns += op.count * WARP
        stats = make_workload(abbr, scale=0.1).static_stats()
        assert stats["thread_instructions"] == thread_insns
        assert stats["mem_ops"] == mem_ops
        assert stats["mem_requests"] == mem_requests
        assert stats["distinct_pcs"] == len(pcs)
