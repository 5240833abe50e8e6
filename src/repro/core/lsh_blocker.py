"""Textual-only LSH blocking (the paper's "LSH" baseline).

Pipeline (§5.1): shingle each record's blocking attributes into q-grams,
minhash into a k*l signature, band into l hash tables of k rows, and
emit every bucket with at least two records as a block.

The engine is :class:`OnlineLSHIndex`: each slab is shingled against
one growing vocabulary, minhashed on the corpus-level batch kernels
(see DESIGN.md, "Batch signature engine"), banded and bulk-inserted
into a :class:`~repro.lsh.index.BandedLSHIndex`, whose buckets merge
across slabs. :class:`~repro.core.base.LSHFamilyBlocker` derives the
entry points from it — :meth:`~repro.core.base.LSHFamilyBlocker.block`,
``block_stream`` (slabs, with an optional memory-mapped or growable
signature spill) and ``block_pair`` — all byte-identical to one batch
pass over the records. ``processes=`` runs the signature pass over
record slabs in worker processes and band-shards the bucket grouping
(see DESIGN.md, "Process-sharded streaming runtime"). The per-record
reference loop it is checked against is
:func:`repro.reference.lsh_blocks`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.base import LSHFamilyBlocker, OnlineIndex
from repro.errors import ConfigurationError
from repro.lsh.bands import record_band_keys, split_bands_matrix
from repro.lsh.index import BandedLSHIndex
from repro.minhash.corpus import ShingleVocabulary
from repro.minhash.minhash import HashColumns
from repro.minhash.signature import GrowableSignatureSpill
from repro.records.blocks import BlockList
from repro.records.record import Record


class _BandedOnlineIndex(OnlineIndex):
    """What the two banded online indexes share: one growing shingle
    vocabulary, an optional signature spill, the
    :class:`~repro.lsh.index.BandedLSHIndex` their slabs feed, and the
    probe path's :class:`~repro.minhash.minhash.HashColumns` memo.

    ``signatures_out`` may be a preallocated uint64 buffer (e.g. a
    :func:`~repro.minhash.signature.open_signature_memmap` map) filled
    row slab by row slab, or a
    :class:`~repro.minhash.signature.GrowableSignatureSpill` appended
    to; either way the band keys the index keeps are views of the
    file-backed rows, so the accumulated signatures live on disk.
    """

    def __init__(
        self,
        blocker: LSHFamilyBlocker,
        signatures_out: "np.ndarray | GrowableSignatureSpill | None",
    ) -> None:
        self.blocker = blocker
        self._vocabulary = ShingleVocabulary()
        self._signatures_out = signatures_out
        self._cursor = 0
        self._index = BandedLSHIndex(
            blocker.l, processes=blocker.processes, pool=blocker.pool
        )
        # Held here, not on the blocker: checkpoints pickle the blocker
        # and pools ship it to workers.
        self._columns = HashColumns(blocker.hasher)

    def _probe_keys(self, record: Record) -> list[bytes]:
        """A probe's band keys, its signature gathered from the memo.

        ``shingle_ids`` never grows the vocabulary, so a probe leaves
        the buckets as they were.
        """
        blocker = self.blocker
        signature = self._columns.signature(blocker.shingler.shingle_ids(record))
        return record_band_keys(signature, blocker.k, blocker.l)

    def _insert(self, record_ids, signatures: np.ndarray, gate_entries=None):
        """The one insertion path: check the ids, spill the rows, then
        bulk-insert their band keys."""
        self._index.check_new_ids(record_ids)
        out = self._signatures_out
        lo, hi = self._cursor, self._cursor + len(record_ids)
        if isinstance(out, np.ndarray):
            if hi > out.shape[0]:
                raise ConfigurationError(
                    f"signatures_out holds {out.shape[0]} rows; "
                    f"streamed records exceed it at {hi}"
                )
            out[lo:hi] = signatures
            signatures = out[lo:hi]
        elif isinstance(out, GrowableSignatureSpill):
            signatures = out.append(signatures)
        self._cursor = hi
        blocker = self.blocker
        self._index.add_many(
            record_ids,
            split_bands_matrix(signatures, blocker.k, blocker.l),
            gate_entries,
        )

    def remove(self, record_id: str) -> None:
        self._index.remove(record_id)

    def is_retired(self, record_id: str) -> bool:
        return self._index.is_retired(record_id)

    @property
    def num_live(self) -> int:
        return self._index.num_live

    def blocks(self) -> BlockList:
        return self._index.blocks()


class OnlineLSHIndex(_BandedOnlineIndex):
    """The engine of :class:`LSHBlocker`, built once, then mutated.

    Each :meth:`add_many` slab is shingled against one growing
    vocabulary and minhashed on the batch engine, so after any
    interleaving of adds and removes :meth:`blocks` is identical to
    :meth:`LSHBlocker.block` over the surviving records in insertion
    order. :meth:`query` probes the banded index with a single record's
    signature — O(l) bucket lookups, no mutation — and returns live
    candidate ids in first-encounter order.
    """

    def __init__(
        self,
        blocker: "LSHBlocker",
        records: Iterable[Record] = (),
        *,
        signatures_out: "np.ndarray | GrowableSignatureSpill | None" = None,
    ) -> None:
        super().__init__(blocker, signatures_out)
        self.add_many(records)

    def add_many(self, records) -> None:
        blocker = self.blocker
        corpus = blocker.shingler.shingle_corpus(
            records, vocabulary=self._vocabulary
        )
        if corpus.num_records:
            self.add_signatures(
                corpus.record_ids, blocker.hasher.signature_matrix(corpus)
            )

    def add_signatures(self, record_ids, signatures: np.ndarray) -> None:
        """Index a slab whose signature rows are already computed."""
        self._insert(record_ids, signatures)

    def query(self, record: Record) -> list[str]:
        return self._index.query_keys(
            self._probe_keys(record), record_id=record.record_id
        )

    def checkpoint(self) -> dict:
        return {"kind": "lsh", "retired": self._index.retired_ids()}

    def restore(self, state: dict) -> None:
        self._index.restore_retired(state.get("retired", ()))


class LSHBlocker(LSHFamilyBlocker):
    """Banded minhash LSH over textual similarity only.

    Parameters are those of :class:`~repro.core.base.LSHFamilyBlocker`.
    """

    name = "LSH"

    def describe(self) -> str:
        return f"{self.name}(q={self.q}, k={self.k}, l={self.l})"

    def online(
        self,
        records: Iterable[Record] = (),
        *,
        signatures_out: "np.ndarray | GrowableSignatureSpill | None" = None,
    ) -> OnlineLSHIndex:
        """A mutable :class:`OnlineLSHIndex` seeded with ``records``."""
        return OnlineLSHIndex(self, records, signatures_out=signatures_out)
