"""The record-slab signature map of a pooled ``block()``.

Signatures are the costly, embarrassingly parallel part of blocking:
string shingling and minhash, GIL-bound Python/numpy work per record.
A blocker given a :class:`~repro.utils.parallel.ShardPool` cuts its
corpus into one contiguous record slab per pool process, and each
worker shingles and minhashes its slab with private state (see
DESIGN.md, "Process-level sharding"). Signatures are a pure function
of the hashed gram multiset, so the slabs' outputs, concatenated in
record order, are byte-identical to a single-process pass. Everything
after the signatures — the SA-LSH semantic gate, band keys and bucket
grouping — runs in the parent.

Worker functions are module-level (the pool's pickling contract);
payloads carry the shingler and hasher plus plain record lists.
Because every map goes through :meth:`ShardPool.map`, the pool's fault
tolerance (DESIGN.md, "Fault tolerance & the degradation ladder")
applies: a map that loses a worker, times out or hits a corrupt slab
re-ships only the unfinished slabs — and, in the worst case, computes
them serially in-process — so the output stays byte-identical to the
serial pass under any single fault.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError
from repro.records.record import Record
from repro.utils.parallel import ShardPool


def record_slabs(
    records: Sequence[Record], num_slabs: int
) -> list[Sequence[Record]]:
    """Cut a record list into at most ``num_slabs`` contiguous slabs."""
    if num_slabs < 1:
        raise ConfigurationError(f"num_slabs must be >= 1, got {num_slabs}")
    n = len(records)
    per_slab = max(1, -(-n // num_slabs))
    return [records[lo : lo + per_slab] for lo in range(0, n, per_slab)]


def _plain_slab(payload):
    shingler, hasher, records = payload
    corpus = shingler.shingle_corpus(records)
    return corpus.record_ids, hasher.signature_matrix(corpus)


def _runner_up_slab(payload):
    shingler, hasher, records = payload
    corpus = shingler.shingle_corpus(records)
    minima, runners = hasher.signature_matrix_with_runner_up(corpus)
    return corpus.record_ids, minima, runners


def _pooled_slabs(records, pool: ShardPool):
    """Cut ``records`` into one slab per pool process, interned on the
    pool.

    The interning key is the original ``records`` object (typically the
    Dataset) plus the slab layout, so repeated blocking calls over the
    same corpus reuse the parked slab files without even re-cutting the
    record list, and both slab flavours share one parked copy per
    corpus. Interning is best-effort: a pool whose slab directory
    cannot take the files (even after its disk fallback) hands the
    slabs back unparked, and the pool retains the originals so a parked
    file corrupted later can be rewritten in place during fault
    recovery.
    """
    layout = pool.processes
    cached = pool.get_interned_slabs(records, layout)
    if cached is not None:
        return cached
    slabs = record_slabs(list(records), layout)
    return pool.intern_slabs(records, layout, slabs)


def signature_slabs(shingler, hasher, records, pool: ShardPool):
    """Shingle + minhash record slabs on ``pool``.

    Returns one ``(record_ids, signature_matrix)`` tuple per slab, in
    record order — concatenated they equal the single-process corpus
    pass byte for byte (each worker interns a private vocabulary, which
    signatures do not depend on).
    """
    slabs = _pooled_slabs(records, pool)
    return pool.map(_plain_slab, [(shingler, hasher, slab) for slab in slabs])


def runner_up_signature_slabs(shingler, hasher, records, pool: ShardPool):
    """Like :func:`signature_slabs` for minima + runner-up matrices."""
    slabs = _pooled_slabs(records, pool)
    return pool.map(
        _runner_up_slab, [(shingler, hasher, slab) for slab in slabs]
    )
