"""Memory coalescing unit."""

import numpy as np
import pytest

from repro.gpu.coalescer import coalesce, coalesce_count

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
