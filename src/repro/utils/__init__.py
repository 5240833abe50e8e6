"""Small shared utilities: seeded randomness, universal hashing,
bounded caching, and deterministic fault injection
(:mod:`repro.utils.faults`)."""

from repro.utils.rand import derive_seed, rng_from_seed
from repro.utils.hashing import MERSENNE_PRIME_61, UniversalHashFamily, stable_hash
from repro.utils.cache import LRUCache

__all__ = [
    "derive_seed",
    "rng_from_seed",
    "MERSENNE_PRIME_61",
    "UniversalHashFamily",
    "stable_hash",
    "LRUCache",
]
