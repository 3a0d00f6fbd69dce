"""Hash and set-index functions."""

import numpy as np
import pytest

from repro.utils.hashing import (
    fnv1a_32,
    hash_pc,
    linear_set_index,
    xor_index_fn,
    xor_set_index,
)


class TestFnv1a:
    def test_deterministic(self):
        assert fnv1a_32(0x1234) == fnv1a_32(0x1234)

    def test_differs_for_nearby_inputs(self):
        assert fnv1a_32(0x1000) != fnv1a_32(0x1001)

    def test_32bit_range(self):
        for v in (0, 1, 0xFFFF_FFFF, 0x1234_5678_9ABC):
            assert 0 <= fnv1a_32(v) < (1 << 32)

    def test_zero_input(self):
        # zero still hashes one byte (the loop runs at least once)
        assert 0 <= fnv1a_32(0) < (1 << 32)


class TestHashPc:
    def test_folds_to_requested_width(self):
        for pc in range(0, 4096, 37):
            assert 0 <= hash_pc(pc, bits=7) < 128

    def test_deterministic(self):
        assert hash_pc(0xDEAD) == hash_pc(0xDEAD)

    def test_spreads_typical_pc_strides(self):
        # PCs in real traces step by 8; the 7-bit IDs should not collide
        # wholesale for a typical kernel's worth of instructions
        ids = {hash_pc(0x100 + 8 * i) for i in range(32)}
        assert len(ids) > 24

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            hash_pc(0x100, bits=0)


class TestSetIndex:
    def test_linear_is_modulo(self):
        assert linear_set_index(0x1234, 32) == 0x1234 % 32

    def test_xor_within_range(self):
        for addr in range(0, 100000, 997):
            assert 0 <= xor_set_index(addr, 32) < 32

    def test_xor_breaks_power_of_two_strides(self):
        # blocks spaced exactly num_sets apart map to one set linearly,
        # but the XOR hash spreads them
        blocks = [i * 32 for i in range(64)]
        linear = {linear_set_index(b, 32) for b in blocks}
        hashed = {xor_set_index(b, 32) for b in blocks}
        assert len(linear) == 1
        assert len(hashed) > 8

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            xor_set_index(0, 12)
        with pytest.raises(ValueError):
            linear_set_index(0, 12)

    def test_single_set(self):
        assert xor_set_index(12345, 1) == 0

    def test_xor_rejects_negative_block(self, deadline):
        # an arithmetic right shift keeps a negative address negative, so
        # the fold would never finish
        with pytest.raises(ValueError, match="negative block"):
            xor_index_fn(32)(-5)
        assert xor_index_fn(32)(0) == 0

    def test_vectorized_xor_rejects_negative_block(self, deadline):
        from repro.batchsim.decode import set_indices

        blocks = np.array([3, -5], dtype=np.int64)
        with pytest.raises(ValueError, match="negative block"):
            set_indices(blocks, 32, "hash")
        # the vectorized fold agrees with the scalar one
        ok = np.array([3, 5, 12345, 1 << 40], dtype=np.int64)
        assert set_indices(ok, 32, "hash").tolist() == \
            [xor_index_fn(32)(int(b)) for b in ok]
        assert set_indices(ok[:0], 32, "hash").tolist() == []
