"""Small shared utilities: seeded randomness, universal hashing,
bounded caching, process-parallel execution on the
:class:`~repro.utils.parallel.ShardPool`, retry policies for its
fault-tolerant runtime, and deterministic fault injection
(:mod:`repro.utils.faults`)."""

from repro.utils.rand import derive_seed, rng_from_seed
from repro.utils.hashing import MERSENNE_PRIME_61, UniversalHashFamily, stable_hash
from repro.utils.cache import LRUCache
from repro.utils.parallel import (
    ShardPool,
    chunk_spans,
    resolve_processes,
    set_slab_integrity,
    slab_integrity_enabled,
)
from repro.utils.retry import NO_RETRY, RetryPolicy, as_retry_policy

__all__ = [
    "derive_seed",
    "rng_from_seed",
    "MERSENNE_PRIME_61",
    "UniversalHashFamily",
    "stable_hash",
    "LRUCache",
    "ShardPool",
    "chunk_spans",
    "resolve_processes",
    "set_slab_integrity",
    "slab_integrity_enabled",
    "NO_RETRY",
    "RetryPolicy",
    "as_retry_policy",
]
