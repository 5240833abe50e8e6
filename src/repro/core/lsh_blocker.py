"""Textual-only LSH blocking (the paper's "LSH" baseline).

Pipeline (§5.1): shingle each record's blocking attributes into q-grams,
minhash into a k*l signature, band into l hash tables of k rows, and
emit every bucket with at least two records as a block.

Two engines produce identical blocks:

* ``batch`` (default) — the corpus-level vectorized path: one
  shingling pass with an interned vocabulary, one chunked
  ``reduceat`` minhash over the CSR layout, byte-view band keys and
  bulk bucket grouping (see DESIGN.md, "Batch signature engine");
* ``per-record`` — the legacy record-at-a-time loop, kept as the
  equivalence/benchmark reference.

A third entry point, :meth:`LSHBlocker.block_stream`, runs the batch
engine over record *slabs*: the shingle vocabulary grows incrementally,
signatures can spill to a memory-mapped ``.npy`` file (or, for streams
of unknown length, a growable append-to-file spill), and buckets merge
across slabs — blocks are byte-identical to :meth:`block` on the
concatenated records (see DESIGN.md, "Parallel & streaming runtime").

Orthogonally, ``processes=`` routes the batch engine through the
process-sharded runtime — record slabs shingled/minhashed in worker
processes, bucket grouping band-sharded — with byte-identical blocks
for any process count (see DESIGN.md, "Process-sharded streaming
runtime").
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from repro.core.base import (
    BipartiteBlockingResult,
    Blocker,
    BlockingResult,
    OnlineIndex,
    _coerce_linked,
    make_blocks,
)
from repro.errors import ConfigurationError
from repro.lsh.bands import record_band_keys, split_bands, split_bands_matrix
from repro.lsh.index import BandedLSHIndex
from repro.lsh.sharding import signature_slabs
from repro.minhash.corpus import ShingleVocabulary
from repro.minhash.minhash import MinHasher
from repro.minhash.shingling import Shingler
from repro.minhash.signature import GrowableSignatureSpill
from repro.records.dataset import Dataset
from repro.records.record import Record
from repro.utils.parallel import ShardPool, effective_processes


def stream_slab_signatures(
    hasher: MinHasher,
    corpus,
    signatures_out: "np.ndarray | GrowableSignatureSpill | None",
    cursor: int,
) -> np.ndarray:
    """Compute one streamed slab's signatures, honouring the spill target.

    Fixed buffers (plain arrays or :func:`~repro.minhash.signature.
    open_signature_memmap` maps) are filled in place via ``out=``; a
    :class:`~repro.minhash.signature.GrowableSignatureSpill` has the
    freshly computed slab appended. Returns the array band keys should
    be derived from — the file-backed rows whenever a spill is in play,
    so streamed key views stay pageable instead of pinning every slab
    in RAM.
    """
    out = None
    n = corpus.num_records
    if isinstance(signatures_out, np.ndarray):
        if cursor + n > signatures_out.shape[0]:
            raise ConfigurationError(
                f"signatures_out holds {signatures_out.shape[0]} rows; "
                f"streamed records exceed it at {cursor + n}"
            )
        out = signatures_out[cursor : cursor + n]
    signatures = hasher.signature_matrix(corpus, out=out)
    if isinstance(signatures_out, GrowableSignatureSpill):
        signatures = signatures_out.append(signatures)
    return signatures


class OnlineLSHIndex(OnlineIndex):
    """Long-lived incremental form of :class:`LSHBlocker`.

    Built once, then mutated: each :meth:`add_many` slab is shingled
    against one growing vocabulary and minhashed on the batch engine
    (exactly the :meth:`LSHBlocker.block_stream` loop), so after any
    interleaving of adds and removes :meth:`blocks` is identical to
    :meth:`LSHBlocker.block` over the surviving records in insertion
    order. :meth:`query` probes the banded index with a single record's
    signature — O(l) bucket lookups, no mutation — and returns live
    candidate ids in first-encounter order.

    ``signatures_out`` may point at a
    :class:`~repro.minhash.signature.GrowableSignatureSpill` (or a
    preallocated memmap) so the accumulated signature rows live on disk
    rather than RAM, as in the streaming path.
    """

    def __init__(
        self,
        blocker: "LSHBlocker",
        records: Iterable[Record] = (),
        *,
        signatures_out: "np.ndarray | GrowableSignatureSpill | None" = None,
    ) -> None:
        self.blocker = blocker
        self._vocabulary = ShingleVocabulary()
        self._signatures_out = signatures_out
        self._cursor = 0
        self._index = BandedLSHIndex(
            blocker.l, processes=blocker.processes, pool=blocker.pool
        )
        self.add_many(records)

    def add_many(self, records) -> None:
        blocker = self.blocker
        corpus = blocker.shingler.shingle_corpus(
            records, vocabulary=self._vocabulary
        )
        if corpus.num_records == 0:
            return
        signatures = stream_slab_signatures(
            blocker.hasher, corpus, self._signatures_out, self._cursor
        )
        self._index.add_many(
            corpus.record_ids,
            split_bands_matrix(signatures, blocker.k, blocker.l),
        )
        self._cursor += corpus.num_records

    def remove(self, record_id: str) -> None:
        self._index.remove(record_id)

    def is_retired(self, record_id: str) -> bool:
        return self._index.is_retired(record_id)

    @property
    def num_live(self) -> int:
        return self._index.num_live

    def _query_signature(self, record: Record) -> np.ndarray:
        # shingle_ids never grows the vocabulary, so queries are pure.
        return self.blocker.hasher.signature(
            self.blocker.shingler.shingle_ids(record)
        )

    def query(self, record: Record) -> list[str]:
        keys = record_band_keys(
            self._query_signature(record), self.blocker.k, self.blocker.l
        )
        return self._index.query_keys(keys, record_id=record.record_id)

    def blocks(self):
        return make_blocks(self._index.blocks())

    @property
    def banded_index(self) -> BandedLSHIndex:
        """The underlying banded index (the on-disk exporter's input)."""
        return self._index

    def checkpoint(self) -> dict:
        return {"kind": "lsh", "retired": self._index.retired_ids()}

    def restore(self, state: dict) -> None:
        self._index.restore_retired(state.get("retired", ()))


class LSHBlocker(Blocker):
    """Banded minhash LSH over textual similarity only.

    Parameters
    ----------
    attributes:
        Attributes shingled into the textual representation.
    q:
        q-gram length (None for whole-value shingles).
    k:
        Minhash functions per hash table (rows per band).
    l:
        Number of hash tables (bands).
    seed:
        Seed for the minhash permutations.
    padded:
        Pad values before q-gram extraction.
    batch:
        Use the corpus-level vectorized engine (default). The
        per-record engine produces identical blocks and exists for
        equivalence tests and the perf benchmark.
    processes:
        Worker *processes* for the sharded runtime (``None`` = all
        CPUs): record slabs are shingled/minhashed in parallel
        processes and bucket grouping is band-sharded across the same
        pool — escaping the GIL for the string-heavy hot loops. Blocks
        are byte-identical for every process count; applies to the
        batch engine only.
    pool:
        Optional persistent :class:`~repro.utils.parallel.ShardPool`
        carrying the sharded runtime: the pool's executor stays warm
        across repeated :meth:`block`/:meth:`block_stream` calls and
        slabs ride shared memory instead of the executor's pipes. The
        pool's process count wins over ``processes``; blocks stay
        byte-identical to serial for any pool.
    """

    def __init__(
        self,
        attributes: tuple[str, ...],
        q: int | None,
        k: int,
        l: int,
        *,
        seed: int = 0,
        padded: bool = False,
        batch: bool = True,
        processes: int | None = 1,
        pool: ShardPool | None = None,
        name: str | None = None,
    ) -> None:
        if k < 1 or l < 1:
            raise ConfigurationError(f"k and l must be >= 1, got k={k}, l={l}")
        self.attributes = tuple(attributes)
        self.q = q
        self.k = k
        self.l = l
        self.seed = seed
        self.batch = batch
        self.processes = processes
        self.pool = pool
        self.shingler = Shingler(self.attributes, q=q, padded=padded)
        self.hasher = MinHasher(num_hashes=k * l, seed=seed)
        self.name = name or "LSH"

    def describe(self) -> str:
        return f"{self.name}(q={self.q}, k={self.k}, l={self.l})"

    def _fill_index(self, dataset: Dataset, index: BandedLSHIndex) -> None:
        if not self.batch:
            for record in dataset:
                signature = self.hasher.signature(
                    self.shingler.shingle_ids(record)
                )
                index.add(record.record_id, split_bands(signature, self.k, self.l))
        elif effective_processes(self.processes, self.pool) > 1:
            for record_ids, signatures in signature_slabs(
                self.shingler, self.hasher, dataset, self.processes,
                pool=self.pool,
            ):
                index.add_many(
                    record_ids, split_bands_matrix(signatures, self.k, self.l)
                )
        else:
            corpus = self.shingler.shingle_corpus(dataset)
            signatures = self.hasher.signature_matrix(corpus)
            keys = split_bands_matrix(signatures, self.k, self.l)
            index.add_many(corpus.record_ids, keys)

    def block(self, dataset: Dataset) -> BlockingResult:
        start = time.perf_counter()
        index = BandedLSHIndex(self.l, processes=self.processes, pool=self.pool)
        self._fill_index(dataset, index)
        blocks = make_blocks(index.blocks())
        elapsed = time.perf_counter() - start
        return BlockingResult(
            blocker_name=self.name,
            blocks=blocks,
            seconds=elapsed,
            metadata={
                "k": self.k,
                "l": self.l,
                "q": self.q,
                "processes": self.processes,
                "pooled": self.pool is not None,
                "engine": "batch" if self.batch else "per-record",
            },
        )

    def online(
        self,
        records: Iterable[Record] = (),
        *,
        signatures_out: "np.ndarray | GrowableSignatureSpill | None" = None,
    ) -> OnlineLSHIndex:
        """A mutable :class:`OnlineLSHIndex` seeded with ``records``."""
        return OnlineLSHIndex(self, records, signatures_out=signatures_out)

    def block_pair(self, source, target=None) -> BipartiteBlockingResult:
        """Clean-clean linkage on the online streaming path.

        The target side is indexed first (exactly the resolver shape —
        the index holds the target), then the source records stream
        through the same incremental cursors as a second slab. By the
        incremental≡rebuild contract the resulting blocks equal a batch
        ``block()`` over the union in target-first insertion order, and
        because signatures and bucket membership are insertion-order
        independent the *cross pair set* equals the filtered
        ``block(S∪T)`` oracle. The ``processes=``/``pool=`` runtimes
        flow through unchanged, so results stay byte-identical across
        serial/sharded/pooled.
        """
        linked = _coerce_linked(source, target)
        start = time.perf_counter()
        index = self.online(linked.target.records)
        index.add_many(linked.source.records)
        blocks = index.blocks()
        elapsed = time.perf_counter() - start
        return BipartiteBlockingResult(
            blocker_name=self.name,
            blocks=blocks,
            seconds=elapsed,
            metadata={
                "k": self.k,
                "l": self.l,
                "q": self.q,
                "processes": self.processes,
                "pooled": self.pool is not None,
                "engine": "linkage-online",
                "num_source": len(linked.source),
                "num_target": len(linked.target),
            },
            linked=linked,
        )

    def block_stream(
        self,
        slabs: Iterable[Iterable[Record]],
        *,
        signatures_out: "np.ndarray | GrowableSignatureSpill | None" = None,
        vocabulary: ShingleVocabulary | None = None,
    ) -> BlockingResult:
        """Block a corpus streamed as record slabs.

        Each slab is shingled against one growing
        :class:`~repro.minhash.corpus.ShingleVocabulary`, minhashed on
        the batch engine, banded, and
        bulk-inserted; buckets merge across slabs, so the blocks are
        byte-identical to :meth:`block` over the concatenated records.
        ``slabs`` may be any iterable — including a plain generator of
        unknown length; nothing here calls ``len()``.

        Memory: the index keeps each slab's band keys, which are
        *views* of the slab's signature rows. With ``signatures_out``
        pointing at a memory map or growable spill, those views are
        file-backed (the OS pages them in and out at will), so resident
        memory is one slab's transient working set plus the final
        grouped index — that is the larger-than-RAM configuration.
        Without ``signatures_out``, the key views pin every slab's
        signature rows in RAM, so streaming only bounds the *transient*
        engine memory, not the signature matrix itself.

        Parameters
        ----------
        slabs:
            Iterable of record chunks, e.g. batches parsed from a file
            too large to load. Record ids must be unique across slabs.
        signatures_out:
            Optional spill target filled with consecutive row slabs so
            the full signature matrix lands on disk instead of RAM:
            either a preallocated uint64 buffer with exactly ``k * l``
            columns and at least ``total_records`` rows (typically a
            memory-mapped ``.npy`` from
            :func:`~repro.minhash.signature.open_signature_memmap`) or,
            when the stream length is unknown up front, a
            :class:`~repro.minhash.signature.GrowableSignatureSpill`
            with ``k * l`` hashes (the caller finalizes it afterwards).
        vocabulary:
            Optional vocabulary to extend (continue an earlier stream);
            a fresh one is used by default.
        """
        start = time.perf_counter()
        vocab = ShingleVocabulary() if vocabulary is None else vocabulary
        index = BandedLSHIndex(self.l, processes=self.processes, pool=self.pool)
        cursor = 0
        num_slabs = 0
        # An aborting stream must not leak the spill's file handle: the
        # handle is released (header patched to the rows written so
        # far) before the error propagates. Successful streams leave
        # the spill open for the caller to continue or finalize.
        try:
            for slab in slabs:
                corpus = self.shingler.shingle_corpus(slab, vocabulary=vocab)
                signatures = stream_slab_signatures(
                    self.hasher, corpus, signatures_out, cursor
                )
                index.add_many(
                    corpus.record_ids,
                    split_bands_matrix(signatures, self.k, self.l),
                )
                cursor += corpus.num_records
                num_slabs += 1
        except BaseException:
            if isinstance(signatures_out, GrowableSignatureSpill):
                signatures_out.close()
            raise
        blocks = make_blocks(index.blocks())
        elapsed = time.perf_counter() - start
        return BlockingResult(
            blocker_name=self.name,
            blocks=blocks,
            seconds=elapsed,
            metadata={
                "k": self.k,
                "l": self.l,
                "q": self.q,
                "processes": self.processes,
                "pooled": self.pool is not None,
                "engine": "streaming",
                "num_slabs": num_slabs,
                "num_records": cursor,
                "spilled": signatures_out is not None,
            },
        )
