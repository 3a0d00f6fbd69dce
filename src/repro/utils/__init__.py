"""Small shared utilities: hashing, deterministic RNG, wall clock.

These mirror the bit-accurate hardware structures the paper costs out in
Section 4.3 (the 7-bit hashed instruction ID) and keep every random
stream seeded.
"""

from repro.utils.hashing import fnv1a_32, hash_pc
from repro.utils.rng import DeterministicRng

__all__ = [
    "fnv1a_32",
    "hash_pc",
    "DeterministicRng",
]
