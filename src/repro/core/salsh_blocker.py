"""Semantic-aware LSH blocking — the paper's SA-LSH (§5.2).

SA-LSH augments each of the ``l`` minhash hash tables with a w-way
AND/OR semantic hash function over semhash signatures. Records are
inserted into buckets keyed by (band key, semantic gate suffix), so a
pair collides iff it agrees on a band *and* passes the table's w-way
semantic function — Proposition 5.3: semantically dissimilar pairs never
collide, regardless of textual similarity.

The engine is :class:`OnlineSALSHIndex`, the banded LSH engine with a
frozen :class:`~repro.semantic.semhash.SemhashEncoder` gating each slab.
:class:`~repro.core.base.LSHFamilyBlocker` derives ``block_stream`` and
``block_pair`` from it; :meth:`SALSHBlocker.block` keeps what is
SA-LSH's own — the encoder-freeze time ``sf_seconds`` (Fig. 13) and
the empty corpus.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.core.base import BlockingResult, LSHFamilyBlocker
from repro.core.lsh_blocker import _BandedOnlineIndex
from repro.errors import ConfigurationError, SemanticFunctionError
from repro.minhash.signature import GrowableSignatureSpill
from repro.records.blocks import BlockList
from repro.records.dataset import Dataset, LinkedCorpus
from repro.records.record import Record
from repro.semantic.hashing import WWaySemanticHashFamily
from repro.semantic.interpretation import SemanticFunction
from repro.semantic.semhash import SemhashEncoder


class OnlineSALSHIndex(_BandedOnlineIndex):
    """The engine of :class:`SALSHBlocker`, built once, then mutated.

    Works like :class:`~repro.core.lsh_blocker.OnlineLSHIndex` with the
    semantic gate applied per slab: each slab's semhash rows are
    encoded by one *frozen* :class:`~repro.semantic.semhash.
    SemhashEncoder` and bulk-inserted under (band key, gate suffix)
    buckets, so after any interleaving of adds and removes
    :meth:`blocks` equals :meth:`SALSHBlocker.block_stream` (same
    encoder) over the surviving records. When no encoder is given, one
    is frozen from the first non-empty slab the index takes (a rejected
    slab freezes nothing) — records added later encode against that
    fixed bit set, exactly like the streamed path's sample-fitted
    encoder.

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
        signatures_out: GrowableSignatureSpill | None = None,
    ) -> None:
        super().__init__(blocker, signatures_out)
        self.encoder = encoder
        self._gates = (
            None if encoder is None else blocker._gates(encoder.num_bits)
        )
        self.add_many(records)

    def add_many(self, records) -> None:
        records = (
            records if isinstance(records, (list, tuple)) else list(records)
        )
        if not records:
            return
        blocker = self.blocker
        self.ledger.check([record.record_id for record in records])
        encoder, gates = self.encoder, self._gates
        if encoder is None:
            encoder = SemhashEncoder(blocker.semantic_function, records)
            gates = blocker._gates(encoder.num_bits)
        corpus = blocker.shingler.shingle_corpus(
            records, vocabulary=self._vocabulary
        )
        semhash = encoder.signature_matrix(records)
        self._insert(
            corpus.record_ids,
            blocker.hasher.signature_matrix(corpus),
            [gates.gate_entries(table, semhash) for table in range(blocker.l)],
        )
        # Frozen together, and only once the slab is in: a first slab
        # rejected anywhere above leaves the index without either.
        self.encoder, self._gates = encoder, gates

    # remove() and blocks() repeat the shared bodies so that they live
    # in this class's own namespace, where erbench's traced mode wraps
    # them (as it does add_many and query).
    def remove(self, record_id: str) -> None:
        self._index.remove(record_id)

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
        return self._index.query_keys(
            self._probe_keys(record),
            self._gates.probe_suffixes(semhash),
            record_id=record.record_id,
        )

    def blocks(self) -> BlockList:
        return self._index.blocks()

    def checkpoint(self) -> dict:
        # The frozen encoder is part of the durable state: a survivor
        # rebuild must gate later additions against the *same* bit set
        # the pre-crash index froze (the checkpoint writer pickles the
        # "encoder" value; everything else is JSON).
        return {**super().checkpoint(), "encoder": self.encoder}

    def restore(self, state: dict) -> None:
        encoder = state.get("encoder")
        if encoder is not None and self.encoder is None:
            # Every record was removed before the checkpoint: the
            # survivor rebuild saw no slab to freeze from, but the
            # pre-crash encoder must still gate future additions.
            self.encoder = encoder
            self._gates = self.blocker._gates(encoder.num_bits)
        super().restore(state)


class SALSHBlocker(LSHFamilyBlocker):
    """Semantic-aware LSH blocker.

    Parameters
    ----------
    attributes, q, k, l, seed, padded, name:
        As for :class:`~repro.core.base.LSHFamilyBlocker`.
    semantic_function:
        The semantic function ζ (carries its taxonomy).
    w:
        Number of semhash functions per table, or ``'all'`` for the
        lowest-threshold configuration (at least one shared concept —
        used in Fig. 9).
    mode:
        ``'and'`` or ``'or'`` (the paper's µ).
    """

    name = "SA-LSH"
    parameter_names = ("k", "l", "q", "w", "mode")

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
        name: str | None = None,
    ) -> None:
        if mode not in ("and", "or"):
            raise ConfigurationError(f"mode must be 'and' or 'or', got {mode!r}")
        super().__init__(
            attributes, q, k, l, seed=seed, padded=padded, name=name
        )
        self.w = w
        self.mode = mode
        self.semantic_function = semantic_function

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

    def _parameters(self, index) -> dict:
        encoder = None if index is None else index.encoder
        return {
            **super()._parameters(index),
            "num_semantic_bits": 0 if encoder is None else encoder.num_bits,
        }

    def block(self, dataset: Dataset) -> BlockingResult:
        start = time.perf_counter()
        if not len(dataset):
            # An empty corpus has no interpretations to derive semhash
            # bits from; it returns empty blocks instead of tripping the
            # encoder's no-concepts error.
            return self._result((), start, "batch", sf_seconds=0.0)
        # sf_seconds is the encoder-freeze time — every record
        # interpreted and the semhash bit set fixed — reported apart
        # from blocking as the SF curve of Fig. 13.
        sf_start = time.perf_counter()
        encoder = SemhashEncoder(self.semantic_function, dataset)
        sf_seconds = time.perf_counter() - sf_start
        index = self.online(dataset, encoder=encoder)
        return self._result(
            index.blocks(), start, "batch", index, sf_seconds=sf_seconds
        )

    def online(
        self,
        records: Iterable[Record] = (),
        *,
        encoder: SemhashEncoder | None = None,
        signatures_out: GrowableSignatureSpill | None = None,
    ) -> OnlineSALSHIndex:
        """A mutable :class:`OnlineSALSHIndex` seeded with ``records``.

        ``encoder`` fixes the semhash bit set up front (as
        :meth:`block_stream` requires); without one, the index freezes
        an encoder from its first non-empty record slab.
        """
        return OnlineSALSHIndex(
            self, records, encoder=encoder, signatures_out=signatures_out
        )

    def linkage_index(self, linked: LinkedCorpus) -> OnlineSALSHIndex:
        """The target-side index, gated by an encoder frozen over S ∪ T.

        The union bit set is exactly what the batch oracle
        ``block(S ∪ T)`` derives, and order-independent (a union of ζ
        concept sets), so source-only concepts still carry semantic
        bits when the source streams in or probes. An empty union has
        no concepts to freeze: the index stays encoder-less and blocks
        nothing.
        """
        union = linked.union
        if not len(union):
            return self.online()
        encoder = SemhashEncoder(self.semantic_function, union)
        return self.online(linked.target.records, encoder=encoder)

    def block_pair(self, source, target=None):
        # Defined here, not only inherited: erbench's traced mode wraps
        # the attribute in this class's own namespace.
        return super().block_pair(source, target)

    def block_stream(
        self,
        slabs: Iterable[Iterable[Record]],
        *,
        encoder: SemhashEncoder,
        signatures_out: GrowableSignatureSpill | None = None,
    ) -> BlockingResult:
        """Block a corpus streamed as record slabs under a frozen encoder.

        :meth:`~repro.core.base.LSHFamilyBlocker.block_stream` on an
        index gated by ``encoder``, which is required: freezing one
        from the first slab would silently drop every concept later
        slabs bring. With ``encoder`` frozen from the full corpus
        (``SemhashEncoder(semantic_function, records)``) the blocks are
        byte-identical to :meth:`block` over the concatenated records.
        With an encoder fitted on a training sample
        (:meth:`~repro.semantic.semhash.SemhashEncoder.fit`) unseen
        leaf concepts are dropped from the signatures, so blocks can
        differ; the streamed SA-LSH tests bound the recall dip.
        """
        return super().block_stream(
            slabs, encoder=encoder, signatures_out=signatures_out
        )
