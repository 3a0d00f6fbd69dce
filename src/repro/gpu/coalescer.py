"""Memory access coalescing (paper Section 2: the LD/ST unit generates
one or more memory data requests for each memory instruction).

Fermi-style coalescing: the per-lane byte addresses of a warp memory
instruction are folded into the minimal set of 128-byte line segments.
A fully coalesced access (32 consecutive 4-byte words) produces one
request; a fully divergent one produces up to 32.

A warp has at most 32 lanes, too few for numpy set operations to pay
off: numpy shifts the lanes in one call, and the dedup runs on Python
ints, where ``dict.fromkeys`` keeps first-touch order without sorting.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def coalesce(addrs: Sequence[int], line_size: int = 128) -> List[int]:
    """Fold per-lane byte addresses into unique line (block) addresses.

    Returns block addresses (byte address >> log2(line_size)) in first-
    touch lane order, matching the order the LD/ST unit emits requests.
    """
    if line_size <= 0 or line_size & (line_size - 1):
        raise ValueError(f"line size must be a power of two, got {line_size}")
    shift = line_size.bit_length() - 1
    if isinstance(addrs, np.ndarray):
        blocks = (addrs.astype(np.int64, copy=False) >> shift).tolist()
    else:
        blocks = [addr >> shift for addr in addrs]
    return list(dict.fromkeys(blocks))


def coalesce_count(addrs: Sequence[int], line_size: int = 128) -> int:
    """Number of requests a warp access generates."""
    return len(coalesce(addrs, line_size))
