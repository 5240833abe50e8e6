"""Blocker interface, the :class:`BlockingResult` value type, and
:class:`LSHFamilyBlocker`, the one engine behind the four minhash LSH
blockers' entry points."""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, DatasetError
from repro.lsh.index import RecordLedger
from repro.minhash.minhash import MinHasher
from repro.minhash.shingling import Shingler
from repro.records.blocks import BlockList
from repro.records.dataset import Dataset, LinkedCorpus
from repro.records.ground_truth import Pair
from repro.records.record import Record
from repro.records.pairs import (
    ArrayBlockingGraph,
    csr_source_counts,
    encode_pair_keys,
    enumerate_csr_cross_pairs,
    pairs_from_keys,
    unique_pair_keys,
)


@dataclass(frozen=True)
class BlockingResult:
    """Blocks produced by a blocker over one dataset.

    Attributes
    ----------
    blocker_name:
        Name of the technique that produced the blocks.
    blocks:
        Possibly overlapping groups of record ids (each of size >= 2;
        singleton blocks carry no candidate pairs and are dropped), as
        a :class:`~repro.records.blocks.BlockList`. Any sequence of id
        tuples may be passed; it is wrapped on construction.
    seconds:
        Wall-clock blocking time when measured by a runner, else None.
    metadata:
        Free-form diagnostics (parameters, sub-timings such as the
        semantic-function build time of Fig. 13).

    Every count, pair key and array view below reads the block list's
    CSR arrays, never the block tuples (their per-block loop oracles
    are in :mod:`repro.reference.pairs`). Derived caches stay out of
    the pickled state (see :meth:`__getstate__`).
    """

    blocker_name: str
    blocks: BlockList
    seconds: float | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", BlockList.of(self.blocks))

    def __getstate__(self) -> dict[str, Any]:
        # Derived caches (the blocking graph, the decoded pair set) are
        # rebuilt on demand.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def graph(self) -> ArrayBlockingGraph:
        """Γ as the blocking graph, built once and shared.

        Its sorted edge keys are the one enumeration of the distinct
        pairs: :meth:`pair_keys` and :attr:`distinct_pairs` read them,
        and so does meta-blocking
        (:func:`repro.metablocking.run_metablocking`).
        """
        return ArrayBlockingGraph.from_blocks(self.blocks)

    @cached_property
    def distinct_pairs(self) -> frozenset[Pair]:
        """Γ — distinct candidate pairs across all blocks.

        Compatibility view: decodes the graph's edge keys back to id
        tuples (its sorted vocabulary makes them canonical).
        """
        graph = self.graph
        return frozenset(pairs_from_keys(graph.edge_keys, graph.ids))

    def pair_keys(self, dataset: Dataset) -> np.ndarray:
        """Γ as sorted ``uint64`` pair keys over the dataset's id codec.

        Translates the graph's edge keys: one ``encode_ids`` over its
        vocabulary — only the ids some block references — then one
        sort. Raises :class:`~repro.errors.DatasetError` when a block
        references an id outside the dataset.
        """
        graph = self.graph
        codes = dataset.encode_ids(graph.ids)
        keys = encode_pair_keys(codes[graph.edge_left], codes[graph.edge_right])
        keys.sort()
        return keys

    @property
    def num_multiset_comparisons(self) -> int:
        """|Γm| — pair comparisons counted per block (with redundancy)."""
        sizes = self.blocks.sizes()
        return int((sizes * (sizes - 1) // 2).sum())

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def max_block_size(self) -> int:
        sizes = self.blocks.sizes()
        return int(sizes.max()) if sizes.size else 0

    def with_timing(self, seconds: float) -> "BlockingResult":
        """Copy of the result annotated with a wall-clock time."""
        return replace(self, seconds=seconds)


@dataclass(frozen=True)
class BipartiteBlockingResult(BlockingResult):
    """Blocks over a :class:`LinkedCorpus` union, read as cross pairs.

    The blocks themselves are ordinary union-corpus blocks (so every
    dedup-side consumer — meta-blocking, the equivalence suites — still
    works on them); the linkage view carves the bipartite candidate set
    out of each block with cross-side enumeration: a pair is a
    candidate iff a source member and a target member co-occur in a
    block. Within-side pairs are never emitted.
    """

    linked: LinkedCorpus | None = None

    def _require_linked(self) -> LinkedCorpus:
        if self.linked is None:
            raise DatasetError(
                "BipartiteBlockingResult has no attached LinkedCorpus"
            )
        return self.linked

    @cached_property
    def _positions(self) -> np.ndarray:
        """Union-codec position of each block-vocabulary row some block
        references (0 at the others); an id outside the union raises
        :class:`~repro.errors.DatasetError` naming it."""
        union = self._require_linked().union
        blocks = self.blocks
        present = blocks.present_rows()
        positions = np.zeros(len(blocks.ids), dtype=np.int64)
        positions[present] = union.encode_ids(blocks.ids[present].tolist())
        return positions

    @property
    def _source_rows(self) -> np.ndarray:
        """True at block-vocabulary rows holding a source record: the
        union is source-first, so those are the positions below |S|."""
        return self._positions < len(self._require_linked().source)

    @cached_property
    def cross_pair_keys(self) -> np.ndarray:
        """Γ as sorted union-codec ``uint64`` keys, ``lo < |S| <= hi``.

        A cross pair is the union codec's plain pair key, the source
        member's position in the high word — directly intersectable
        with ``linked.true_match_keys``. The referenced ids are encoded
        once, through ``union.encode_ids``.
        """
        blocks = self.blocks
        positions = self._positions
        left, right = enumerate_csr_cross_pairs(
            blocks.offsets, blocks.indices, self._source_rows
        )
        return unique_pair_keys(positions[left], positions[right])

    @cached_property
    def cross_pairs(self) -> frozenset[Pair]:
        """Γ as distinct ``(source_id, target_id)`` tuples."""
        ids = self._require_linked().union.record_ids
        return frozenset(pairs_from_keys(self.cross_pair_keys, ids))

    @property
    def num_cross_multiset_comparisons(self) -> int:
        """|Γm| of the cross space: Σ per block n_source × n_target."""
        blocks = self.blocks
        n_src = csr_source_counts(blocks.offsets, blocks.indices, self._source_rows)
        return int((n_src * (blocks.sizes() - n_src)).sum())


def as_bipartite(
    result: BlockingResult, linked: LinkedCorpus
) -> BipartiteBlockingResult:
    """Re-type a union-corpus result as a bipartite result."""
    return BipartiteBlockingResult(
        blocker_name=result.blocker_name,
        blocks=result.blocks,
        seconds=result.seconds,
        metadata=result.metadata,
        linked=linked,
    )


def make_blocks(groups: Iterable[Sequence[str]]) -> BlockList:
    """Normalise raw groups: drop singletons, freeze to tuples."""
    return BlockList.from_tuples(g for g in groups if len(g) >= 2)


def _coerce_linked(
    source: Dataset | LinkedCorpus, target: Dataset | None
) -> LinkedCorpus:
    """Accept either a prebuilt :class:`LinkedCorpus` or two datasets."""
    if isinstance(source, LinkedCorpus):
        if target is not None:
            raise DatasetError(
                "block_pair got a LinkedCorpus and a target dataset; "
                "pass one or the other"
            )
        return source
    if target is None:
        raise DatasetError("block_pair needs a target dataset")
    return LinkedCorpus(source, target)


class Blocker(ABC):
    """Base class of every blocking technique in the library."""

    #: Short display name used in result tables (overridden by subclasses).
    name: str = "blocker"

    @abstractmethod
    def block(self, dataset: Dataset) -> BlockingResult:
        """Group the dataset's records into candidate blocks."""

    def block_pair(
        self,
        source: Dataset | LinkedCorpus,
        target: Dataset | None = None,
    ) -> BipartiteBlockingResult:
        """Clean-clean linkage: block source against target.

        The base implementation blocks the union corpus and re-types
        the result; the candidate set is the cross-side subset of each
        block's pairs (:attr:`BipartiteBlockingResult.cross_pair_keys`),
        so every blocker gets linkage for free. The four LSH blockers
        (:class:`LSHFamilyBlocker`) derive it from their online index
        instead — index the target, stream the source through the same
        incremental cursors the resolver uses — with identical pair
        sets.
        """
        linked = _coerce_linked(source, target)
        return as_bipartite(self.block(linked.union), linked)

    def describe(self) -> str:
        """One-line parameter description for reports."""
        return self.name


class OnlineIndex(ABC):
    """A long-lived blocking index answering single-record queries.

    Produced by a blocker's ``online()`` factory; the contract every
    implementation keeps (and the equivalence suite enforces):

    * :meth:`add_many` / :meth:`add` index records incrementally — no
      rebuild, identical end state regardless of how the corpus is
      split into calls; ids are unique across all calls (an id already
      indexed, or repeated in a slab, raises
      :class:`~repro.errors.DatasetError` naming it) and a slab is
      taken whole or rejected whole;
    * :meth:`remove` drops one record in O(1); the id is *retired*
      (re-adding raises ``KeyError`` — replacements use a fresh id);
    * :meth:`query` returns live candidate ids for a probe record
      without mutating the index (empty for a record nothing
      co-blocks with — never an exception);
    * :meth:`blocks` equals the owning blocker's batch ``block()``
      over the surviving records in their original insertion order.

    Each implementation keeps its ids in one
    :class:`~repro.lsh.index.RecordLedger` (``ledger``), from which
    removal, retirement, the live count and the durable state are
    derived here once.
    """

    ledger: RecordLedger

    @abstractmethod
    def add_many(self, records: Sequence[Record]) -> None:
        """Index a slab of records (ids unique across all calls)."""

    def add(self, record: Record) -> None:
        """Index one record (convenience wrapper over :meth:`add_many`)."""
        self.add_many([record])

    def remove(self, record_id: str) -> None:
        """Tombstone one indexed record; the id is retired permanently."""
        self.ledger.retire(record_id)

    def is_retired(self, record_id: str) -> bool:
        """True when the id was removed (and may never be re-added)."""
        return record_id in self.ledger.retired

    @property
    def num_live(self) -> int:
        """Records indexed and not removed."""
        return self.ledger.num_live

    @abstractmethod
    def query(self, record: Record) -> list[str]:
        """Live record ids sharing at least one block with ``record``."""

    @abstractmethod
    def blocks(self) -> BlockList:
        """Current blocks over the live records (batch-equivalent)."""

    def checkpoint(self) -> dict:
        """The index's durable mutation state, as a state dict.

        Because every implementation keeps the incremental≡rebuild
        equivalence (``blocks()`` after any add/remove interleaving
        equals a from-scratch rebuild over the survivors in insertion
        order), a checkpoint does not persist internal tables — only
        the state a survivor rebuild cannot rederive: the retired ids
        (``"retired"``), and for frozen-encoder indexes the encoder
        itself (under ``"encoder"``, pickled by the checkpoint writer).
        :meth:`restore` applies the dict to an index freshly rebuilt
        from the surviving records.
        """
        return {"retired": sorted(self.ledger.retired)}

    def restore(self, state: dict) -> None:
        """Apply :meth:`checkpoint` state to a survivor-rebuilt index."""
        self.ledger.restore(state.get("retired", ()))


class LSHFamilyBlocker(Blocker):
    """Base of the four minhash LSH blockers: one engine per technique.

    A subclass supplies two things: its :meth:`online` index and its
    :attr:`parameter_names`. The entry points are derived here once,
    because the online index's incremental ≡ rebuild contract
    (:class:`OnlineIndex`) makes batch, streamed and linkage blocking
    three ways of feeding one index:

    * :meth:`block` — ``online(D).blocks()``;
    * :meth:`block_stream` — one index, ``add_many`` per slab;
    * :meth:`block_pair` — the target-side :meth:`linkage_index`, then
      ``add_many(source)``.

    The per-record engines of :mod:`repro.reference.blocking` are the
    anchor the derived paths are checked against
    (``tests/test_batch_equivalence.py``).

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
    name:
        Display name; defaults to the class's :attr:`name`.
    """

    #: Attributes reported, next to the engine, in every result's
    #: metadata.
    parameter_names: tuple[str, ...] = ("k", "l", "q")
    #: Minhash implementation (MP-LSH also needs runner-up values).
    hasher_type: type = MinHasher

    def __init__(
        self,
        attributes: tuple[str, ...],
        q: int | None,
        k: int,
        l: int,
        *,
        seed: int = 0,
        padded: bool = False,
        name: str | None = None,
    ) -> None:
        if k < 1 or l < 1:
            raise ConfigurationError(f"k and l must be >= 1, got k={k}, l={l}")
        self.attributes = tuple(attributes)
        self.q = q
        self.k = k
        self.l = l
        self.seed = seed
        self.shingler = Shingler(self.attributes, q=q, padded=padded)
        self.hasher = self.hasher_type(num_hashes=k * l, seed=seed)
        self.name = name or type(self).name

    @abstractmethod
    def online(self, records: Iterable[Record] = (), **options) -> OnlineIndex:
        """A mutable online index seeded with ``records``."""

    def _parameters(self, index: OnlineIndex | None) -> dict[str, Any]:
        """The parameters reported in a result's metadata."""
        return {name: getattr(self, name) for name in self.parameter_names}

    def _result(
        self,
        blocks: BlockList,
        start: float,
        engine: str,
        index: OnlineIndex | None = None,
        *,
        linked: LinkedCorpus | None = None,
        **extra: Any,
    ) -> BlockingResult:
        """Every entry point's result: blocks, time since ``start``, and
        metadata of parameters and ``engine`` plus ``extra``."""
        metadata = {**self._parameters(index), "engine": engine, **extra}
        seconds = time.perf_counter() - start
        if linked is None:
            return BlockingResult(
                blocker_name=self.name, blocks=blocks, seconds=seconds,
                metadata=metadata,
            )
        return BipartiteBlockingResult(
            blocker_name=self.name, blocks=blocks, seconds=seconds,
            metadata=metadata, linked=linked,
        )

    def block(self, dataset: Dataset) -> BlockingResult:
        start = time.perf_counter()
        index = self.online(dataset)
        return self._result(index.blocks(), start, "batch", index)

    def block_stream(
        self, slabs: Iterable[Iterable[Record]], **online_options: Any
    ) -> BlockingResult:
        """Block a corpus streamed as record slabs.

        One :meth:`online` index takes each slab through ``add_many``:
        the shingle vocabulary grows incrementally and buckets merge
        across slabs, so the blocks are byte-identical to :meth:`block`
        over the concatenated records. ``slabs`` may be any iterable,
        including a plain generator of unknown length; nothing here
        calls ``len()``. Record ids must be unique across slabs.

        ``online_options`` go to :meth:`online`. The banded blockers
        (LSH, SA-LSH) take ``signatures_out=``, a
        :class:`~repro.minhash.signature.GrowableSignatureSpill` each
        slab's signature rows are appended to, however long the stream
        (the caller finalizes it afterwards). The banded index keeps
        each slab's band keys as *views* of its signature rows, so with
        a spill those views are file-backed pages the OS evicts at will
        and resident memory is one slab's working set plus the grouped
        index; without one, the views pin every slab's rows in RAM.

        An aborting stream releases the spill's file handle (header
        patched to the rows written so far) before the error
        propagates; a successful stream leaves the spill open for the
        caller to continue or finalize.
        """
        start = time.perf_counter()
        index = self.online(**online_options)
        spill = online_options.get("signatures_out")
        num_slabs = 0
        try:
            for slab in slabs:
                index.add_many(slab)
                num_slabs += 1
        except BaseException:
            if spill is not None:
                spill.close()
            raise
        return self._result(
            index.blocks(), start, "streaming", index,
            num_slabs=num_slabs,
            num_records=index.num_live,
            spilled=spill is not None,
        )

    def linkage_index(self, linked: LinkedCorpus) -> OnlineIndex:
        """The target-side online index a linkage run starts from.

        :meth:`block_pair` streams the source side into it and
        :meth:`~repro.er.resolver.Resolver.for_linkage` serves source
        probes against it, so both start from one index.
        """
        return self.online(linked.target.records)

    def block_pair(
        self,
        source: Dataset | LinkedCorpus,
        target: Dataset | None = None,
    ) -> BipartiteBlockingResult:
        """Clean-clean linkage through the online index.

        The target side is indexed first (:meth:`linkage_index`, the
        resolver's shape), then the source streams in as a second slab.
        By incremental ≡ rebuild the blocks equal :meth:`block` over
        the union in target-first insertion order, and because
        signatures and bucket membership do not depend on insertion
        order, the cross pair set equals the filtered ``block(S ∪ T)``
        oracle.

        Probing alone — index the target, ``query()`` each source
        record, never insert it — is *not* equivalent for two of the
        four blockers: an MP-LSH cross pair can come from a third
        record's exact bucket that neither endpoint probes into, and an
        LSH-Forest leaf's adaptive splits depend on *union* bucket
        occupancy. So linkage runs the full grouping over the union.
        """
        linked = _coerce_linked(source, target)
        start = time.perf_counter()
        index = self.linkage_index(linked)
        index.add_many(linked.source.records)
        return self._result(
            index.blocks(), start, "linkage-online", index,
            linked=linked,
            num_source=len(linked.source),
            num_target=len(linked.target),
        )
