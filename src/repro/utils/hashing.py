"""Hash functions used by the cache substrate.

Two uses in the reproduced design:

* The baseline L1D uses a *hash* set-index function (Table 1: "Hash index")
  rather than simple bit-slicing; GPGPU-Sim's Fermi config XORs higher
  address bits into the set index to spread power-of-two strides.
* DLP tags every cache line with a 7-bit *hashed PC* instruction ID
  (Section 4.1.1); we reproduce that with an FNV-1a hash folded to 7 bits.
"""

from __future__ import annotations

from typing import Callable

_FNV_OFFSET_32 = 0x811C9DC5
_FNV_PRIME_32 = 0x01000193


def fnv1a_32(value: int) -> int:
    """FNV-1a hash of an integer's little-endian bytes, 32-bit."""
    h = _FNV_OFFSET_32
    v = value & 0xFFFFFFFFFFFFFFFF
    while True:
        h ^= v & 0xFF
        h = (h * _FNV_PRIME_32) & 0xFFFFFFFF
        v >>= 8
        if v == 0:
            break
    return h


def _fmix32(h: int) -> int:
    """Murmur3 finaliser: full avalanche so low output bits depend on
    every input bit (plain FNV low bits are weak for small inputs)."""
    h &= 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h


def hash_pc(pc: int, bits: int = 7) -> int:
    """Fold a program counter into an instruction ID of ``bits`` width.

    The paper's PDPT has 128 entries indexed by this 7-bit ID, so two PCs
    can collide; the reproduction keeps that behaviour rather than hiding
    it behind a dict keyed by full PC.
    """
    if bits < 1:
        raise ValueError("instruction ID needs at least 1 bit")
    return _fmix32(fnv1a_32(pc)) & ((1 << bits) - 1)


def _check_num_sets(num_sets: int) -> None:
    if num_sets <= 0 or num_sets & (num_sets - 1):
        raise ValueError(f"num_sets must be a power of two, got {num_sets}")


def xor_index_fn(num_sets: int) -> Callable[[int], int]:
    """The XOR-hash set index of a cache with ``num_sets`` sets, checked
    once: ``fn(block_addr)`` folds the line address (byte address >>
    log2(line size)) in ``log2(num_sets)``-wide slices, which breaks up
    power-of-two strides that would otherwise all map to one set.  A
    negative address raises ``ValueError``."""
    _check_num_sets(num_sets)
    mask = num_sets - 1
    bits = mask.bit_length()
    if bits == 0:
        return lambda block_addr: 0

    def index(block_addr: int) -> int:
        if block_addr < 0:
            # an arithmetic shift never clears a negative address
            raise ValueError(f"negative block address {block_addr}")
        result = 0
        while block_addr:
            result ^= block_addr & mask
            block_addr >>= bits
        return result

    return index


def linear_index_fn(num_sets: int) -> Callable[[int], int]:
    """The modulo set index of a cache with ``num_sets`` sets, checked
    once (the paper's L2 uses "Linear index")."""
    _check_num_sets(num_sets)
    mask = num_sets - 1

    def index(block_addr: int) -> int:
        return block_addr & mask

    return index


def xor_set_index(block_addr: int, num_sets: int) -> int:
    """XOR-hash set index of one block (see :func:`xor_index_fn`)."""
    return xor_index_fn(num_sets)(block_addr)


def linear_set_index(block_addr: int, num_sets: int) -> int:
    """Plain modulo set index of one block (see :func:`linear_index_fn`)."""
    return linear_index_fn(num_sets)(block_addr)
