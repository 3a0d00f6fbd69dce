"""Set-index functions for the tag arrays.

Table 1 of the paper configures the L1D with a *hash* index and the L2
with a *linear* index; both functions live in :mod:`repro.utils.hashing`
and are registered here so cache geometry can name its index function
in configuration.  :func:`get_index_fn` binds one to a set count and
checks that count once, so the per-access call takes only the block
address.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict

from repro.utils.hashing import linear_index_fn, xor_index_fn

IndexFn = Callable[[int], int]

INDEX_FUNCTIONS: Dict[str, Callable[[int], IndexFn]] = {
    "linear": linear_index_fn,
    "hash": xor_index_fn,
}


@lru_cache(maxsize=64)
def get_index_fn(name: str, num_sets: int) -> IndexFn:
    """``fn(block_addr) -> set index`` for a cache of ``num_sets`` sets;
    raises ``ValueError`` for an unknown name or a set count that is not
    a power of two."""
    try:
        make = INDEX_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown set-index function {name!r}; expected one of "
            f"{sorted(INDEX_FUNCTIONS)}"
        ) from None
    return make(num_sets)
