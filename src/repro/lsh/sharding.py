"""Process-level sharding of the blocking hot loops.

The blocking hot loops — string shingling, minhash, semantic
interpretation and the sort-and-segment bucket grouping — are mostly
GIL-bound Python/numpy work. This module maps them over a
:class:`~repro.utils.parallel.ShardPool` (a caller's warm pool, or an
ephemeral one per call) in two phases (see DESIGN.md, "Process-sharded
streaming runtime"):

* **Record slabs** (map): the corpus is cut into contiguous record
  slabs; each worker shingles, minhashes and (for SA-LSH) interprets
  its slab with private state. Signatures are a pure function of the
  hashed gram multiset, and interpretations of the record alone, so the
  reassembled outputs are byte-identical to a single-process pass.
* **Band-key shards** (reduce): grouping entries into buckets routes
  each entry by a deterministic hash of its integer grouping label
  (:func:`~repro.lsh.bands.fold_labels`), so every shard owns a
  *disjoint* label range
  and groups it independently — no cross-shard bucket merge is needed
  beyond concatenation. Each bucket's global first-occurrence position
  is carried back, and the merged emission order sorts on it, which
  reproduces the serial ``BandedLSHIndex.blocks`` order exactly.

Worker functions are module-level (the pickling contract of
:func:`repro.utils.parallel.map_processes`); payloads carry the
shingler/hasher/semantic-function objects plus plain record lists.

Because every sharded map goes through that one contract, the runtime's
fault tolerance (DESIGN.md, "Fault tolerance & the degradation ladder")
applies uniformly: a map that loses a worker, times out or hits
a corrupt slab re-ships only the unfinished slabs — and, in the worst
case, computes them serially in-process — so the reassembled output
stays byte-identical to the serial pass under any single fault.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.lsh.bands import fold_labels
from repro.records.record import Record
from repro.utils.parallel import (
    ShardPool,
    effective_processes,
    map_processes,
)

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


def _semantic_slab(payload):
    shingler, hasher, semantic_function, records = payload
    corpus = shingler.shingle_corpus(records)
    zetas = [semantic_function.interpret(record) for record in records]
    return corpus.record_ids, hasher.signature_matrix(corpus), zetas


def _pooled_slabs(records, processes, pool):
    """Cut ``records`` into slabs, interning them on the pool if one is
    given.

    The interning key is the original ``records`` object (typically the
    Dataset) plus the slab layout, so repeated blocking calls over the
    same corpus reuse the parked slab files without even re-cutting the
    record list — the slab *contents* are identical either way, and all
    three slab flavours share one parked copy per corpus. Interning is
    best-effort: a pool whose slab directory cannot take the files
    (even after its disk fallback) hands the slabs back unparked, and
    the pool retains the originals so a parked file corrupted later can
    be rewritten in place during fault recovery.
    """
    layout = effective_processes(processes, pool)
    if pool is not None:
        cached = pool.get_interned_slabs(records, layout)
        if cached is not None:
            return cached
    slabs = record_slabs(list(records), layout)
    if pool is not None:
        slabs = pool.intern_slabs(records, layout, slabs)
    return slabs


def signature_slabs(shingler, hasher, records, processes, *, pool=None):
    """Shingle + minhash record slabs across processes.

    Returns one ``(record_ids, signature_matrix)`` tuple per slab, in
    record order — concatenated they equal the single-process corpus
    pass byte for byte (each worker interns a private vocabulary, which
    signatures do not depend on). ``pool`` runs the map on a persistent
    :class:`~repro.utils.parallel.ShardPool` (its process count also
    sets the slab layout) instead of an ephemeral per-call one, and
    interns the record slabs so repeated calls over one corpus stop
    re-pickling them.
    """
    slabs = _pooled_slabs(records, processes, pool)
    return map_processes(
        _plain_slab,
        [(shingler, hasher, slab) for slab in slabs],
        processes,
        pool=pool,
    )


def runner_up_signature_slabs(
    shingler, hasher, records, processes, *, pool=None
):
    """Like :func:`signature_slabs` for minima + runner-up matrices."""
    slabs = _pooled_slabs(records, processes, pool)
    return map_processes(
        _runner_up_slab,
        [(shingler, hasher, slab) for slab in slabs],
        processes,
        pool=pool,
    )


def semantic_signature_slabs(
    shingler, hasher, semantic_function, records, processes, *, pool=None
):
    """Shingle + minhash + interpret record slabs across processes.

    Returns one ``(record_ids, signature_matrix, zetas)`` tuple per
    slab; ``zetas`` aligns with ``record_ids``. Interpretation (the
    regex/lookup-heavy ζ evaluation) happens exactly once per record,
    inside the workers — the parent derives the semhash bit set from
    the shipped ζ sets without re-interpreting anything.
    """
    slabs = _pooled_slabs(records, processes, pool)
    return map_processes(
        _semantic_slab,
        [(shingler, hasher, semantic_function, slab) for slab in slabs],
        processes,
        pool=pool,
    )


def _segment_shard(payload):
    """Worker: sort-and-segment every (table, labels) subset of a shard."""
    from repro.lsh.index import _segment

    return [(table, _segment(labels)) for table, labels in payload]


def group_tables_sharded(entries, processes, pool: "ShardPool | None" = None):
    """Group per-table entries into buckets across process shards.

    ``entries`` is one ``(entry_rows, labels)`` pair (or ``None``) per
    table, in serial entry order — the output of
    ``BandedLSHIndex._table_entries``; the rows pass through to the
    buckets untouched. Entries are routed to
    ``effective_processes(processes, pool)`` shards by label hash; each
    shard sort-and-segments its disjoint label subset, and the merged
    buckets are re-emitted by ascending global first-occurrence
    position — byte-identical to the serial grouping (members ascend
    within each bucket because shard subsets preserve relative entry
    order). With ``pool`` set the shards run on the persistent pool and
    each shard's label arrays ride as shared-memory slabs.

    Returns one ``_BulkBuckets`` (or ``None``) per table.
    """
    from repro.lsh.index import _BulkBuckets

    num_shards = effective_processes(processes, pool)
    payloads: list[list] = [[] for _ in range(num_shards)]
    selections: dict[tuple[int, int], np.ndarray] = {}
    for table, entry in enumerate(entries):
        if entry is None:
            continue
        _, labels = entry
        shard_ids = fold_labels(labels) % np.uint64(num_shards)
        for shard in range(num_shards):
            chosen = np.flatnonzero(shard_ids == shard)
            if chosen.size == 0:
                continue
            selections[(shard, table)] = chosen
            payloads[shard].append((table, labels[chosen]))
    results = map_processes(_segment_shard, payloads, processes, pool=pool)

    merged: list = [None] * len(entries)
    parts: dict[int, list] = {}
    for shard, result in enumerate(results):
        for table, (order, starts, ends) in result:
            chosen = selections[(shard, table)]
            entry_rows = entries[table][0]
            positions = chosen[order]
            parts.setdefault(table, []).append(
                (entry_rows[positions], starts, ends, positions[starts])
            )
    for table, shard_parts in parts.items():
        members = np.concatenate([p[0] for p in shard_parts])
        sizes = [p[0].size for p in shard_parts]
        offsets = np.cumsum([0] + sizes[:-1])
        starts = np.concatenate(
            [p[1] + offset for p, offset in zip(shard_parts, offsets)]
        )
        ends = np.concatenate(
            [p[2] + offset for p, offset in zip(shard_parts, offsets)]
        )
        first_positions = np.concatenate([p[3] for p in shard_parts])
        emit_order = np.argsort(first_positions)
        merged[table] = _BulkBuckets(members, starts, ends, emit_order)
    return merged
