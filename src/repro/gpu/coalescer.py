"""Memory access coalescing (paper Section 2: the LD/ST unit generates
one or more memory data requests for each memory instruction).

Fermi-style coalescing: the per-lane byte addresses of a warp memory
instruction are folded into the minimal set of 128-byte line segments.
A fully coalesced access (32 consecutive 4-byte words) produces one
request; a fully divergent one produces up to 32.

An :class:`~repro.gpu.isa.AffineLanes` descriptor with a non-negative
stride folds in closed form, with no lane ever built: lane addresses
rise monotonically, so

* a zero stride, or a single lane, touches one block;
* a stride of at most one line touches every block from the first
  lane's to the last lane's, each once;
* a stride of more than one line puts every lane in its own block.

Other lane sets (negative strides, arbitrary arrays) take the general
path.  A warp has at most 32 lanes, too few for numpy set operations
to pay off: numpy shifts the lanes in one call, and the dedup runs on
Python ints, where ``dict.fromkeys`` keeps first-touch order without
sorting.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.gpu.isa import AffineLanes, LaneAddrs


def coalesce(addrs: LaneAddrs, line_size: int = 128) -> List[int]:
    """Fold per-lane byte addresses into unique line (block) addresses.

    Returns block addresses (byte address >> log2(line_size)) as Python
    ints in first-touch lane order, matching the order the LD/ST unit
    emits requests.
    """
    if line_size <= 0 or line_size & (line_size - 1):
        raise ValueError(f"line size must be a power of two, got {line_size}")
    shift = line_size.bit_length() - 1
    if type(addrs) is AffineLanes:
        base, stride, count = addrs.base, addrs.stride, addrs.count
        if stride == 0 or count <= 1:
            return [base >> shift] if count > 0 else []
        if 0 < stride <= line_size:
            last = (base + (count - 1) * stride) >> shift
            return list(range(base >> shift, last + 1))
        if stride > line_size:
            return [(base + lane * stride) >> shift for lane in range(count)]
        addrs = np.asarray(addrs)
    if isinstance(addrs, np.ndarray):
        blocks = (addrs.astype(np.int64, copy=False) >> shift).tolist()
    else:
        blocks = [addr >> shift for addr in addrs]
    return list(dict.fromkeys(blocks))


def coalesce_count(addrs: LaneAddrs, line_size: int = 128) -> int:
    """Number of requests a warp access generates."""
    return len(coalesce(addrs, line_size))
