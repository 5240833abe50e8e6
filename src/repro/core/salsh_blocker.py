"""Semantic-aware LSH blocking — the paper's SA-LSH (§5.2).

SA-LSH augments each of the ``l`` minhash hash tables with a w-way
AND/OR semantic hash function over semhash signatures. Records are
inserted into buckets keyed by (band key, semantic gate suffix), so a
pair collides iff it agrees on a band *and* passes the table's w-way
semantic function — Proposition 5.3: semantically dissimilar pairs never
collide, regardless of textual similarity.
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
    as_bipartite,
    make_blocks,
)
from repro.core.lsh_blocker import stream_slab_signatures
from repro.errors import ConfigurationError, SemanticFunctionError
from repro.lsh.bands import record_band_keys, split_bands, split_bands_matrix
from repro.lsh.index import BandedLSHIndex
from repro.lsh.sharding import semantic_signature_slabs, signature_slabs
from repro.minhash.corpus import ShingleVocabulary
from repro.minhash.minhash import MinHasher
from repro.minhash.shingling import Shingler
from repro.minhash.signature import GrowableSignatureSpill
from repro.records.dataset import Dataset
from repro.records.record import Record
from repro.semantic.hashing import WWaySemanticHashFamily
from repro.semantic.interpretation import SemanticFunction
from repro.semantic.semhash import SemhashEncoder
from repro.utils.parallel import ShardPool, effective_processes


class OnlineSALSHIndex(OnlineIndex):
    """Long-lived incremental form of :class:`SALSHBlocker`.

    Mirrors :class:`~repro.core.lsh_blocker.OnlineLSHIndex` with the
    semantic gate applied per slab: band keys come from the streaming
    signature engine and each slab's semhash rows are encoded by one
    *frozen* :class:`~repro.semantic.semhash.SemhashEncoder`, so after
    any interleaving of adds and removes :meth:`blocks` equals
    :meth:`SALSHBlocker.block_stream` (same encoder) over the surviving
    records. When no encoder is given, one is frozen from the first
    non-empty slab — records added later encode against that fixed bit
    set, exactly like the streamed path's sample-fitted encoder.

    :meth:`query` gates the probe record through the same w-way family.
    A record whose interpretation the semantic function cannot produce
    (:class:`~repro.errors.SemanticFunctionError`), or whose concepts
    are entirely unseen by the frozen encoder (an all-zero semhash the
    OR/AND gates exclude), yields empty candidates — never an
    exception.
    """

    def __init__(
        self,
        blocker: "SALSHBlocker",
        records: Iterable[Record] = (),
        *,
        encoder: SemhashEncoder | None = None,
        signatures_out: "np.ndarray | GrowableSignatureSpill | None" = None,
    ) -> None:
        self.blocker = blocker
        self.encoder = encoder
        self._gates = (
            None if encoder is None else blocker._gates(encoder.num_bits)
        )
        self._vocabulary = ShingleVocabulary()
        self._signatures_out = signatures_out
        self._cursor = 0
        self._index = BandedLSHIndex(
            blocker.l, processes=blocker.processes, pool=blocker.pool
        )
        self.add_many(records)

    def add_many(self, records) -> None:
        records = (
            records if isinstance(records, (list, tuple)) else list(records)
        )
        if not records:
            return
        blocker = self.blocker
        if self.encoder is None:
            self.encoder = SemhashEncoder(blocker.semantic_function, records)
            self._gates = blocker._gates(self.encoder.num_bits)
        corpus = blocker.shingler.shingle_corpus(
            records, vocabulary=self._vocabulary
        )
        signatures = stream_slab_signatures(
            blocker.hasher, corpus, self._signatures_out, self._cursor
        )
        semhash = self.encoder.signature_matrix(records)
        entries = [
            self._gates.gate_entries(table, semhash)
            for table in range(blocker.l)
        ]
        self._index.add_many(
            corpus.record_ids,
            split_bands_matrix(signatures, blocker.k, blocker.l),
            gate_entries=entries,
        )
        self._cursor += corpus.num_records

    def remove(self, record_id: str) -> None:
        self._index.remove(record_id)

    def is_retired(self, record_id: str) -> bool:
        return self._index.is_retired(record_id)

    @property
    def num_live(self) -> int:
        return self._index.num_live

    def query(self, record: Record) -> list[str]:
        if self.encoder is None:
            return []
        try:
            semhash = self.encoder.encode(record)
        except SemanticFunctionError:
            # The frozen semantic function cannot interpret this record
            # at all (e.g. an incomplete pattern table): semantically it
            # matches nothing, so it blocks with nothing.
            return []
        blocker = self.blocker
        keys = record_band_keys(
            blocker.hasher.signature(blocker.shingler.shingle_ids(record)),
            blocker.k,
            blocker.l,
        )
        gates = self._gates

        def gate(table: int, _record_id: str):
            return gates.gate_suffixes(table, semhash)

        return self._index.query_keys(keys, gate, record_id=record.record_id)

    def blocks(self):
        return make_blocks(self._index.blocks())

    @property
    def banded_index(self) -> BandedLSHIndex:
        """The underlying banded index (the on-disk exporter's input)."""
        return self._index

    def checkpoint(self) -> dict:
        # The frozen encoder is part of the durable state: a survivor
        # rebuild must gate later additions against the *same* bit set
        # the pre-crash index froze (the checkpoint writer pickles the
        # "encoder" value; everything else is JSON).
        return {
            "kind": "salsh",
            "retired": self._index.retired_ids(),
            "encoder": self.encoder,
        }

    def restore(self, state: dict) -> None:
        encoder = state.get("encoder")
        if encoder is not None and self.encoder is None:
            # Every record was removed before the checkpoint: the
            # survivor rebuild saw no slab to freeze from, but the
            # pre-crash encoder must still gate future additions.
            self.encoder = encoder
            self._gates = self.blocker._gates(encoder.num_bits)
        self._index.restore_retired(state.get("retired", ()))


class SALSHBlocker(Blocker):
    """Semantic-aware LSH blocker.

    Parameters
    ----------
    attributes, q, k, l, seed, padded:
        As for :class:`~repro.core.lsh_blocker.LSHBlocker`.
    semantic_function:
        The semantic function ζ (carries its taxonomy).
    w:
        Number of semhash functions per table, or ``'all'`` for the
        lowest-threshold configuration (at least one shared concept —
        used in Fig. 9).
    mode:
        ``'and'`` or ``'or'`` (the paper's µ).
    batch:
        Use the corpus-level vectorized engine (default); the
        per-record engine produces identical blocks and exists for
        equivalence tests and the perf benchmark.
    processes:
        Worker processes for the sharded runtime (``None`` = all CPUs):
        record slabs are shingled, minhashed *and interpreted* in
        parallel processes, and bucket grouping is band-sharded across
        the same pool. Byte-identical blocks for every process count;
        applies to the batch engine only.
    pool:
        Optional persistent :class:`~repro.utils.parallel.ShardPool`:
        the sharded runtime reuses its warm executor across repeated
        blocking calls (the pool's process count wins over
        ``processes``) and slabs ride shared memory. Blocks stay
        byte-identical to serial for any pool.
    """

    def __init__(
        self,
        attributes: tuple[str, ...],
        q: int | None,
        k: int,
        l: int,
        *,
        semantic_function: SemanticFunction,
        w: int | str = "all",
        mode: str = "or",
        seed: int = 0,
        padded: bool = False,
        batch: bool = True,
        processes: int | None = 1,
        pool: ShardPool | None = None,
        name: str | None = None,
    ) -> None:
        if k < 1 or l < 1:
            raise ConfigurationError(f"k and l must be >= 1, got k={k}, l={l}")
        if mode not in ("and", "or"):
            raise ConfigurationError(f"mode must be 'and' or 'or', got {mode!r}")
        self.attributes = tuple(attributes)
        self.q = q
        self.k = k
        self.l = l
        self.w = w
        self.mode = mode
        self.seed = seed
        self.batch = batch
        self.processes = processes
        self.pool = pool
        self.semantic_function = semantic_function
        self.shingler = Shingler(self.attributes, q=q, padded=padded)
        self.hasher = MinHasher(num_hashes=k * l, seed=seed)
        self.name = name or "SA-LSH"

    def describe(self) -> str:
        return (
            f"{self.name}(q={self.q}, k={self.k}, l={self.l}, "
            f"w={self.w}, mode={self.mode})"
        )

    def _gates(self, num_bits: int) -> WWaySemanticHashFamily:
        return WWaySemanticHashFamily(
            num_bits=num_bits,
            w=self.w,
            mode=self.mode,
            num_tables=self.l,
            seed=self.seed,
        )

    def block(self, dataset: Dataset) -> BlockingResult:
        start = time.perf_counter()
        if not len(dataset):
            # An empty corpus has no interpretations to derive semhash
            # bits from; every engine (serial, sharded, pooled) returns
            # empty blocks instead of tripping the encoder's
            # no-concepts error.
            return self._empty_result(start)
        if self.batch and effective_processes(self.processes, self.pool) > 1:
            return self._block_sharded(dataset, start)

        # Semantic-function build time is reported separately (the SF
        # curve of Fig. 13): it covers interpreting all records, fixing
        # the semhash bit set, and encoding the signatures.
        sf_start = time.perf_counter()
        encoder = SemhashEncoder(self.semantic_function, dataset)
        if self.batch:
            semhash_matrix = encoder.signature_matrix(dataset)
        else:
            signatures = {
                record.record_id: encoder.encode(record) for record in dataset
            }
        sf_seconds = time.perf_counter() - sf_start

        gates = self._gates(encoder.num_bits)

        index = BandedLSHIndex(self.l)
        if self.batch:
            corpus = self.shingler.shingle_corpus(dataset)
            signature_matrix = self.hasher.signature_matrix(corpus)
            keys = split_bands_matrix(signature_matrix, self.k, self.l)
            entries = [
                gates.gate_entries(table, semhash_matrix)
                for table in range(self.l)
            ]
            index.add_many(corpus.record_ids, keys, gate_entries=entries)
        else:
            for record in dataset:
                signature = self.hasher.signature(
                    self.shingler.shingle_ids(record)
                )
                semhash = signatures[record.record_id]

                def gate(table: int, _record_id: str, _sig=semhash):
                    return gates.gate_suffixes(table, _sig)

                index.add(
                    record.record_id, split_bands(signature, self.k, self.l), gate
                )

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
                "w": gates.w,
                "mode": self.mode,
                "num_semantic_bits": encoder.num_bits,
                "sf_seconds": sf_seconds,
                "processes": self.processes,
                "pooled": self.pool is not None,
                "engine": "batch" if self.batch else "per-record",
            },
        )

    def _empty_result(self, start: float) -> BlockingResult:
        return BlockingResult(
            blocker_name=self.name,
            blocks=(),
            seconds=time.perf_counter() - start,
            metadata={
                "k": self.k,
                "l": self.l,
                "q": self.q,
                "w": self.w,
                "mode": self.mode,
                "num_semantic_bits": 0,
                "sf_seconds": 0.0,
                "processes": self.processes,
                "pooled": self.pool is not None,
                "engine": "batch" if self.batch else "per-record",
            },
        )

    def _block_sharded(self, dataset: Dataset, start: float) -> BlockingResult:
        """The ``processes>1`` batch path.

        One process-pool pass shingles, minhashes *and* interprets each
        record slab; the parent derives the semhash bit set from the
        shipped ζ sets (a union — order-independent, so identical to
        the serial encoder), encodes each slab's semhash rows with the
        vectorized scatter, and bulk-inserts with per-slab gate
        entries. Cross-slab bucket merging plus band-sharded grouping
        make the blocks byte-identical to the serial batch engine.

        On a persistent pool the derived semantic state — the frozen
        encoder and per-slab semhash matrices, pure functions of
        (semantic function, corpus, slab layout) — is memoised for the
        pool's lifetime, so repeated calls over one corpus skip the
        worker-side re-interpretation and the parent-side re-encode;
        the workers then run the plain signature map. Blocks are
        byte-identical either way.
        """
        memo_key = ("salsh-semantic", self.semantic_function)
        cached = (
            self.pool.get_memo(dataset, memo_key)
            if self.pool is not None
            else None
        )
        if cached is None:
            slabs = semantic_signature_slabs(
                self.shingler, self.hasher, self.semantic_function,
                dataset, self.processes, pool=self.pool,
            )
            # sf_seconds covers the parent-side bit-set fix + semhash
            # encode; per-record interpretation time is folded into the
            # parallel slab pass and not separable from minhashing.
            sf_start = time.perf_counter()
            interpretations: dict[str, frozenset[str]] = {}
            for record_ids, _, zetas in slabs:
                interpretations.update(zip(record_ids, zetas))
            encoder = SemhashEncoder.from_interpretations(
                self.semantic_function, interpretations
            )
            semhash_slabs = [
                encoder.matrix_from_interpretations(zetas)
                for _, _, zetas in slabs
            ]
            sf_seconds = time.perf_counter() - sf_start
            signature_parts = [
                (record_ids, signatures) for record_ids, signatures, _ in slabs
            ]
            if self.pool is not None:
                self.pool.set_memo(
                    dataset, memo_key, (encoder, semhash_slabs)
                )
        else:
            encoder, semhash_slabs = cached
            signature_parts = signature_slabs(
                self.shingler, self.hasher, dataset, self.processes,
                pool=self.pool,
            )
            sf_seconds = 0.0

        gates = self._gates(encoder.num_bits)
        index = BandedLSHIndex(self.l, processes=self.processes, pool=self.pool)
        for (record_ids, signatures), semhash in zip(
            signature_parts, semhash_slabs
        ):
            entries = [
                gates.gate_entries(table, semhash) for table in range(self.l)
            ]
            index.add_many(
                record_ids,
                split_bands_matrix(signatures, self.k, self.l),
                gate_entries=entries,
            )
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
                "w": gates.w,
                "mode": self.mode,
                "num_semantic_bits": encoder.num_bits,
                "sf_seconds": sf_seconds,
                "processes": self.processes,
                "pooled": self.pool is not None,
                "engine": "sharded",
            },
        )

    def online(
        self,
        records: Iterable[Record] = (),
        *,
        encoder: SemhashEncoder | None = None,
        signatures_out: "np.ndarray | GrowableSignatureSpill | None" = None,
    ) -> OnlineSALSHIndex:
        """A mutable :class:`OnlineSALSHIndex` seeded with ``records``.

        ``encoder`` fixes the semhash bit set up front (as
        :meth:`block_stream` requires); without one, the index freezes
        an encoder from its first non-empty record slab.
        """
        return OnlineSALSHIndex(
            self, records, encoder=encoder, signatures_out=signatures_out
        )

    def block_pair(self, source, target=None) -> BipartiteBlockingResult:
        """Clean-clean linkage on the online streaming path.

        The semhash encoder is frozen over the *union* of both sides —
        exactly what the batch oracle ``block(S∪T)`` derives, and
        order-independent (the bit set is a union of ζ concept sets) —
        then the target is indexed and the source streams through the
        same online cursors. Blocks therefore equal a batch block over
        the union in target-first insertion order, the cross pair set
        equals the filtered oracle, and the ``processes=``/``pool=``
        runtimes keep results byte-identical across serial/sharded/
        pooled.
        """
        linked = _coerce_linked(source, target)
        start = time.perf_counter()
        union = linked.union
        if not len(union):
            return as_bipartite(self._empty_result(start), linked)
        sf_start = time.perf_counter()
        encoder = SemhashEncoder(self.semantic_function, union)
        sf_seconds = time.perf_counter() - sf_start
        index = self.online(linked.target.records, encoder=encoder)
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
                "w": self.w,
                "mode": self.mode,
                "num_semantic_bits": encoder.num_bits,
                "sf_seconds": sf_seconds,
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
        encoder: SemhashEncoder,
        signatures_out: "np.ndarray | GrowableSignatureSpill | None" = None,
        vocabulary: ShingleVocabulary | None = None,
    ) -> BlockingResult:
        """Block a corpus streamed as record slabs — SA-LSH's streaming
        entry point.

        Works like :meth:`repro.core.lsh_blocker.LSHBlocker.
        block_stream` with the semantic gate applied per slab: each
        slab is shingled against one growing vocabulary, minhashed,
        encoded with the *frozen* ``encoder`` and bulk-inserted under
        (band key, gate suffix) buckets that merge across slabs.
        ``slabs`` may be a plain generator of unknown length.

        With ``encoder`` frozen from the full corpus
        (``SemhashEncoder(semantic_function, records)``) the blocks are
        byte-identical to :meth:`block` over the concatenated records.
        With an encoder fitted on a training sample
        (:meth:`~repro.semantic.semhash.SemhashEncoder.fit`) unseen
        leaf concepts are dropped from the signatures, so blocks can
        differ; the streamed SA-LSH tests bound the recall dip.

        Parameters
        ----------
        slabs:
            Iterable of record chunks; ids must be unique across slabs.
        encoder:
            A frozen :class:`~repro.semantic.semhash.SemhashEncoder`
            (its bit set fixes the gate family; it is never mutated).
        signatures_out:
            Optional spill target (fixed memory map or growable spill),
            as for the LSH streaming path.
        vocabulary:
            Optional vocabulary to extend (continue an earlier stream).
        """
        start = time.perf_counter()
        vocab = ShingleVocabulary() if vocabulary is None else vocabulary
        gates = self._gates(encoder.num_bits)
        index = BandedLSHIndex(self.l, processes=self.processes, pool=self.pool)
        cursor = 0
        num_slabs = 0
        # As in the LSH streaming path: an aborting stream releases the
        # spill's file handle before the error propagates; successful
        # streams leave it open for the caller to continue or finalize.
        try:
            for slab in slabs:
                records = slab if isinstance(slab, (list, tuple)) else list(slab)
                corpus = self.shingler.shingle_corpus(records, vocabulary=vocab)
                signatures = stream_slab_signatures(
                    self.hasher, corpus, signatures_out, cursor
                )
                semhash = encoder.signature_matrix(records)
                entries = [
                    gates.gate_entries(table, semhash) for table in range(self.l)
                ]
                index.add_many(
                    corpus.record_ids,
                    split_bands_matrix(signatures, self.k, self.l),
                    gate_entries=entries,
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
                "w": gates.w,
                "mode": self.mode,
                "num_semantic_bits": encoder.num_bits,
                "processes": self.processes,
                "pooled": self.pool is not None,
                "engine": "streaming",
                "num_slabs": num_slabs,
                "num_records": cursor,
                "spilled": signatures_out is not None,
            },
        )
