"""Per-record reference engines of the four minhash LSH blockers.

LSH and SA-LSH run the paper-literal loop of §5: each record gets one
:meth:`~repro.minhash.minhash.MinHasher.signature`, one
:func:`~repro.lsh.bands.split_bands`, and one append per table — per
table *and gate suffix* for SA-LSH — into a plain dict of buckets
(:func:`banded_buckets`). MP-LSH and LSH-Forest hash one record at a
time the same way and then apply their blocker's grouping rule.

Blocks come out table by table, each table's buckets in
first-occurrence order with members in insertion order, singletons
dropped — the order the array engines reproduce, so the two compare
byte for byte. The perf bench times :func:`per_record_blocks` as the
per-record floor every runtime must beat.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.core.base import LSHFamilyBlocker, make_blocks
from repro.core.lsh_blocker import LSHBlocker
from repro.core.lsh_variants import LSHForestBlocker, MultiProbeLSHBlocker
from repro.core.salsh_blocker import SALSHBlocker
from repro.lsh.bands import split_bands
from repro.records.blocks import BlockList
from repro.records.dataset import Dataset
from repro.semantic.semhash import SemhashEncoder

#: One record's insertion: its id, one band key per table, and per
#: table the gate suffixes it goes in under (``None``: ungated, once
#: per table; an empty sequence excludes it from that table).
Entry = tuple[str, Sequence[Hashable], "Sequence[Sequence[Hashable]] | None"]


def banded_buckets(num_tables: int, entries: Iterable[Entry]) -> list[list[str]]:
    """Every bucket of a banded index filled one record at a time.

    Each table is a dict keyed by (band key, gate suffix). Returns the
    buckets table by table, each table's in first-occurrence order
    with members in insertion order; singletons are kept (callers drop
    them with :func:`~repro.core.base.make_blocks`).
    """
    tables: list[dict] = [{} for _ in range(num_tables)]
    for record_id, keys, suffixes in entries:
        if len(keys) != num_tables:
            raise ValueError(f"expected {num_tables} band keys, got {len(keys)}")
        for table, key in enumerate(keys):
            for suffix in (0,) if suffixes is None else suffixes[table]:
                tables[table].setdefault((key, suffix), []).append(record_id)
    return [bucket for table in tables for bucket in table.values()]


def lsh_blocks(blocker: LSHBlocker, dataset: Dataset) -> BlockList:
    """LSH (§5.1), one record at a time."""
    k, l = blocker.k, blocker.l
    entries = (
        (
            record.record_id,
            split_bands(
                blocker.hasher.signature(blocker.shingler.shingle_ids(record)), k, l
            ),
            None,
        )
        for record in dataset
    )
    return make_blocks(banded_buckets(l, entries))


def salsh_blocks(
    blocker: SALSHBlocker,
    dataset: Dataset,
    encoder: SemhashEncoder | None = None,
) -> BlockList:
    """SA-LSH (§5.2), one record at a time.

    ``encoder`` is the frozen semhash encoder to gate with; by default
    one is frozen from ``dataset``, as :meth:`SALSHBlocker.block` does.
    An empty corpus has no concepts to freeze and yields no blocks.
    """
    if not len(dataset):
        return make_blocks(())
    if encoder is None:
        encoder = SemhashEncoder(blocker.semantic_function, dataset)
    gates = blocker._gates(encoder.num_bits)
    k, l = blocker.k, blocker.l

    def entries():
        for record in dataset:
            signature = blocker.hasher.signature(blocker.shingler.shingle_ids(record))
            # The construction records themselves: their cached ζ is
            # theirs, and saves a second interpretation.
            semhash = encoder.encode_interpretation(encoder.interpretation(record))
            suffixes = [gates.gate_suffixes(table, semhash) for table in range(l)]
            yield record.record_id, split_bands(signature, k, l), suffixes

    return make_blocks(banded_buckets(l, entries()))


def multiprobe_blocks(blocker: MultiProbeLSHBlocker, dataset: Dataset) -> BlockList:
    """MP-LSH: exact buckets plus the records probing their keys."""
    exact_buckets: list[dict] = [defaultdict(list) for _ in range(blocker.l)]
    probe_membership: list[dict] = [defaultdict(list) for _ in range(blocker.l)]

    for record in dataset:
        minima, runners = blocker.hasher.signature_with_runner_up(
            blocker.shingler.shingle_ids(record)
        )
        for table in range(blocker.l):
            lo = table * blocker.k
            band = tuple(int(v) for v in minima[lo : lo + blocker.k])
            exact_buckets[table][band].append(record.record_id)
            for probe_row in range(blocker.num_probes):
                perturbed = list(band)
                perturbed[probe_row] = int(runners[lo + probe_row])
                probe_membership[table][tuple(perturbed)].append(
                    record.record_id
                )

    groups: list[list[str]] = []
    for table in range(blocker.l):
        for key, members in exact_buckets[table].items():
            probers = [
                rid
                for rid in probe_membership[table].get(key, ())
                if rid not in members
            ]
            group = members + probers
            if len(group) >= 2:
                groups.append(group)
    return make_blocks(groups)


def forest_blocks(blocker: LSHForestBlocker, dataset: Dataset) -> BlockList:
    """LSH-Forest: per-record signatures, then the prefix-tree descent."""
    ids = np.empty(len(dataset), dtype=object)
    rows = np.empty((len(dataset), blocker.hasher.num_hashes), dtype=np.uint64)
    for i, record in enumerate(dataset):
        ids[i] = record.record_id
        rows[i] = blocker.hasher.signature(blocker.shingler.shingle_ids(record))
    return make_blocks(blocker._forest_groups(ids, rows))


_ENGINES = {
    LSHBlocker: lsh_blocks,
    SALSHBlocker: salsh_blocks,
    MultiProbeLSHBlocker: multiprobe_blocks,
    LSHForestBlocker: forest_blocks,
}


def per_record_blocks(
    blocker: LSHFamilyBlocker, dataset: Dataset, **options
) -> BlockList:
    """The reference blocks of any of the four LSH blockers.

    ``options`` go to the technique's engine (``encoder=`` for SA-LSH).
    """
    for cls in type(blocker).__mro__:
        engine = _ENGINES.get(cls)
        if engine is not None:
            return engine(blocker, dataset, **options)
    raise TypeError(f"no per-record engine for {type(blocker).__name__}")
