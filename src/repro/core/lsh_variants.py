"""LSH variants from the paper's related work (§2): multi-probe LSH and
LSH forest, adapted to blocking.

The paper positions these as alternative trade-offs to plain banded
LSH: multi-probe LSH (Lv et al., VLDB 2007) reaches the recall of many
hash tables with fewer tables by also *probing* perturbed bucket keys;
LSH forest (Bawa et al., WWW 2005) replaces fixed-length band keys with
per-table prefix trees whose depth adapts to bucket occupancy. Both are
implemented here as blockers so ablation benchmarks can compare the
design choices directly.

Like :class:`~repro.core.lsh_blocker.LSHBlocker`, each variant's engine
is its online index (:class:`OnlineMultiProbeIndex`,
:class:`OnlineForestIndex`), which keeps per-slab signature arrays from
the corpus-level batch kernels and reruns the batch grouping over the
survivors; :class:`~repro.core.base.LSHFamilyBlocker` derives
``block``, ``block_stream`` (without a signature spill) and
``block_pair`` from it. Their per-record reference engines are in
:mod:`repro.reference.blocking`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.base import LSHFamilyBlocker, OnlineIndex, make_blocks
from repro.errors import ConfigurationError
from repro.lsh.bands import split_bands_matrix
from repro.lsh.index import RecordLedger, grouped_indices
from repro.minhash.corpus import ShingledCorpus, ShingleVocabulary
from repro.minhash.minhash import MinHasher, compact_vocabulary, sentinel_stream
from repro.records.record import Record
from repro.utils.hashing import MERSENNE_PRIME_61


class _MinHasherWithRunnerUp(MinHasher):
    """Minhash that also exposes each function's second-smallest value.

    Multi-probe perturbation for minhash replaces one signature
    component with its runner-up: the nearest alternative bucket in
    which the record would have landed. Runner-ups count duplicate hash
    values (a tied minimum is its own runner-up), matching
    ``np.sort(...)[:, 1]`` on the full per-record hash matrix.
    """

    def signature_with_runner_up(
        self, shingle_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if shingle_ids.size == 0:
            sentinel = np.full(self.num_hashes, MERSENNE_PRIME_61, dtype=np.uint64)
            return sentinel, sentinel.copy()
        matrix = self._family.hash_matrix(shingle_ids)
        if matrix.shape[1] == 1:
            minima = matrix[:, 0]
            return minima, minima.copy()
        ordered = np.sort(matrix, axis=1)
        return ordered[:, 0], ordered[:, 1]

    def signature_matrix_with_runner_up(
        self,
        corpus: ShingledCorpus,
        *,
        chunk_elements: int = 2_000_000,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batch minima and runner-ups for a whole corpus.

        Vocabulary-level hashing + ``reduceat`` minima over the
        corpus's record-level CSR token stream, in the layout
        :meth:`MinHasher.gathered_blocks` picks for the stream length;
        then each segment's runner-up is recovered by masking the
        *first* occurrence of the minimum with the sentinel and reducing
        again — duplicated minima therefore survive as their own
        runner-up, byte-identical to the per-record sort. Like the plain
        signature matrix, the hash functions run as a serial loop over
        blocks capped at ``chunk_elements`` values.

        Unlike the plain signature, the runner-up does not follow from
        per-value rows: a merge of per-value top-2s would have to drop a
        gram two values share, and it cannot tell that from two grams
        with equal hash values, whose tie must survive. So this kernel
        reads the record-level CSR the corpus derives from its values.
        """
        n = corpus.num_records
        sentinel = np.uint64(MERSENNE_PRIME_61)
        minima = np.empty((n, self.num_hashes), dtype=np.uint64)
        runners = np.empty((n, self.num_hashes), dtype=np.uint64)
        if n == 0:
            return minima, runners
        if corpus.num_tokens == 0:
            minima.fill(sentinel)
            runners.fill(sentinel)
            return minima, runners

        counts = corpus.counts
        single_rows = counts == 1
        tokens_ext, starts, empty_rows = sentinel_stream(corpus)
        vocab_hashes, tokens_ext = compact_vocabulary(corpus, tokens_ext)
        stream = tokens_ext.shape[0]
        segment_lengths = np.diff(np.append(starts, stream))
        columns = np.arange(stream, dtype=np.int64)

        def first_two(gathered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """Per-segment minimum and runner-up along the last axis."""
            min1 = np.minimum.reduceat(gathered, starts, axis=-1)
            # Position of the first occurrence of each segment's minimum.
            expanded = np.repeat(min1, segment_lengths, axis=-1)
            position = np.where(gathered == expanded, columns, stream)
            first = np.minimum.reduceat(position, starts, axis=-1)
            # Empty segments may report an out-of-range or neighbouring
            # position; clipping lands on the sentinel column (a no-op
            # write) or on the neighbour's own first-minimum position
            # (an idempotent write).
            first = np.minimum(first, stream - 1)
            np.put_along_axis(gathered, first, sentinel, axis=-1)
            return min1, np.minimum.reduceat(gathered, starts, axis=-1)

        for lo, hi, parts in self.gathered_blocks(
            vocab_hashes, tokens_ext, chunk_elements
        ):
            reduced = [first_two(gathered) for gathered in parts]
            min1 = np.vstack([first for first, _ in reduced])
            min2 = np.vstack([second for _, second in reduced])
            min1[:, empty_rows] = sentinel
            min2[:, empty_rows] = sentinel
            min2[:, single_rows] = min1[:, single_rows]
            minima[:, lo:hi] = min1.T
            runners[:, lo:hi] = min2.T
        return minima, runners


class MultiProbeLSHBlocker(LSHFamilyBlocker):
    """Multi-probe banded minhash blocking.

    Each record is inserted under its exact band key per table and
    additionally *probes* the keys obtained by swapping one of the k
    rows for its runner-up hash value. A pair co-blocks when one
    record's exact key equals the other's exact or probe key — so fewer
    tables achieve the recall of plain LSH with more tables.
    """

    name = "MP-LSH"
    parameter_names = ("k", "l", "q", "num_probes")
    hasher_type = _MinHasherWithRunnerUp

    def __init__(
        self,
        attributes: tuple[str, ...],
        q: int | None,
        k: int,
        l: int,
        *,
        num_probes: int | None = None,
        seed: int = 0,
        name: str | None = None,
    ) -> None:
        super().__init__(attributes, q, k, l, seed=seed, name=name)
        self.num_probes = k if num_probes is None else num_probes
        if not 0 <= self.num_probes <= k:
            raise ConfigurationError(
                f"num_probes must be in [0, k]; got {self.num_probes}"
            )

    def describe(self) -> str:
        return (
            f"{self.name}(q={self.q}, k={self.k}, l={self.l}, "
            f"probes={self.num_probes})"
        )

    def _perturbed_keys(
        self, minima: np.ndarray, runners: np.ndarray, table: int
    ) -> list[np.ndarray]:
        """One table's probe keys, one array per probe row: each
        record's band key with that row swapped for its runner-up."""
        k = self.k
        lo = table * k
        band = minima[:, lo : lo + k]
        keys = []
        for probe_row in range(self.num_probes):
            perturbed = band.copy()
            perturbed[:, probe_row] = runners[:, lo + probe_row]
            keys.append(np.ascontiguousarray(perturbed).reshape(-1).view(f"S{8 * k}"))
        return keys

    def _probe_groups(
        self, ids: np.ndarray, minima: np.ndarray, runners: np.ndarray
    ) -> list[list[str]]:
        """Co-blocking groups from aligned (ids, minima, runner-ups).

        The batch grouping rule, run by :meth:`OnlineMultiProbeIndex.
        blocks` over the surviving rows: a bucket's group is its exact
        members plus the records probing its key.
        """
        n = ids.shape[0]
        exact_keys = split_bands_matrix(minima, self.k, self.l)

        groups: list[list[str]] = []
        entry_record = np.repeat(np.arange(n), self.num_probes)
        for table in range(self.l):
            # Probe keys in (record-major, probe-row) order, matching the
            # per-record insertion order of the reference engine.
            probe_cols = self._perturbed_keys(minima, runners, table)
            if probe_cols:
                probe_keys = np.stack(probe_cols, axis=1).reshape(-1)
            else:
                probe_keys = np.empty(0, dtype=exact_keys.dtype)

            all_keys = np.concatenate([exact_keys[:, table], probe_keys])
            _, labels = np.unique(all_keys, return_inverse=True)
            exact_labels = labels[:n]
            probe_labels = labels[n:]
            probes_by_label = {
                int(probe_labels[group[0]]): group
                for group in grouped_indices(probe_labels)
            }
            for members in grouped_indices(exact_labels):
                probe_group = probes_by_label.get(int(exact_labels[members[0]]))
                group_ids = ids[members].tolist()
                if probe_group is not None:
                    probe_records = entry_record[probe_group]
                    keep = ~np.isin(probe_records, members)
                    group_ids.extend(ids[probe_records[keep]].tolist())
                if len(group_ids) >= 2:
                    groups.append(group_ids)
        return groups

    def online(
        self, records: Iterable[Record] = ()
    ) -> "OnlineMultiProbeIndex":
        """A mutable :class:`OnlineMultiProbeIndex` seeded with ``records``."""
        return OnlineMultiProbeIndex(self, records)


class LSHForestBlocker(LSHFamilyBlocker):
    """LSH-forest-style blocking with adaptive band-prefix depth.

    Each of the ``l`` tables sorts records by their k-value hash tuple
    and recursively splits any bucket larger than ``max_block_size`` on
    the next tuple position — the prefix-tree descent of LSH forest.
    Buckets that cannot split further (prefix exhausted) are kept as-is.
    """

    name = "LSH-Forest"
    parameter_names = ("k", "l", "q", "max_block_size")

    def __init__(
        self,
        attributes: tuple[str, ...],
        q: int | None,
        k: int,
        l: int,
        *,
        max_block_size: int = 50,
        seed: int = 0,
        name: str | None = None,
    ) -> None:
        super().__init__(attributes, q, k, l, seed=seed, name=name)
        if max_block_size < 2:
            raise ConfigurationError(
                f"max_block_size must be >= 2, got {max_block_size}"
            )
        self.max_block_size = max_block_size

    def describe(self) -> str:
        return (
            f"{self.name}(q={self.q}, k={self.k}, l={self.l}, "
            f"max_block={self.max_block_size})"
        )

    def _split(
        self, members: np.ndarray, band: np.ndarray, depth: int
    ) -> list[np.ndarray]:
        """Prefix-tree descent over row indices.

        ``band`` is the table's (n, k) signature slice; partitions are
        in first-occurrence order with members ascending, exactly like a
        dict-of-lists insertion loop.
        """
        if members.size <= self.max_block_size or depth >= self.k:
            return [members]
        partitions = grouped_indices(band[members, depth])
        if len(partitions) == 1:
            # All equal on this position; descend without splitting.
            return self._split(members, band, depth + 1)
        result: list[np.ndarray] = []
        for part in partitions:
            result.extend(self._split(members[part], band, depth + 1))
        return result

    def _forest_groups(
        self, ids: np.ndarray, signatures: np.ndarray
    ) -> list[list[str]]:
        """Adaptive prefix-tree groups from aligned (ids, signatures).

        The batch grouping rule, run by :meth:`OnlineForestIndex.blocks`
        (survivor trees rebuilt with the batch descent verbatim) and by
        the per-record reference engine.
        """
        groups: list[list[str]] = []
        for table in range(self.l):
            band = signatures[:, table * self.k : (table + 1) * self.k]
            # Root split on the first position, then adaptive descent.
            for bucket in grouped_indices(band[:, 0]):
                for rows in self._split(bucket, band, depth=1):
                    groups.append(ids[rows].tolist())
        return groups

    def online(self, records: Iterable[Record] = ()) -> "OnlineForestIndex":
        """A mutable :class:`OnlineForestIndex` seeded with ``records``."""
        return OnlineForestIndex(self, records)


class _VariantOnlineBase(OnlineIndex):
    """What the variant online indexes share: one growing shingle
    vocabulary, one :class:`~repro.lsh.index.RecordLedger` whose id
    slabs their per-slab signature arrays line up with, and the query
    emitter.

    :meth:`blocks` concatenates the surviving rows in insertion order
    and reruns the owning blocker's batch grouping, so incremental
    results equal a from-scratch rebuild.
    """

    def __init__(self, blocker: LSHFamilyBlocker) -> None:
        self.blocker = blocker
        self._vocabulary = ShingleVocabulary()
        self.ledger = RecordLedger()

    def _emit(
        self, members, seen: set[str], found: list[str], record_id: str
    ) -> None:
        retired = self.ledger.retired
        for member in members or ():
            if (
                member not in seen
                and member not in retired
                and member != record_id
            ):
                seen.add(member)
                found.append(member)


class OnlineMultiProbeIndex(_VariantOnlineBase):
    """The engine of :class:`MultiProbeLSHBlocker`, built once, then
    mutated.

    :meth:`blocks` reruns the batch probe grouping over the surviving
    minima and runner-ups. :meth:`query` applies the batch co-blocking
    rule from the probe record's side — a pair co-blocks when one
    record's exact key equals the other's exact *or* probe key — by
    probing, per table, the exact and probe maps with the query's exact
    key and the exact map with each of its perturbed keys. The maps are
    folded lazily: the first :meth:`query` after new slabs extends them
    with those slabs only (as :class:`~repro.lsh.index.BandedLSHIndex`
    folds its query maps), so indexing that is never queried — batch,
    streamed and linkage blocking — never builds them, and removals
    filter at lookup.
    """

    def __init__(
        self,
        blocker: MultiProbeLSHBlocker,
        records: Iterable[Record] = (),
    ) -> None:
        super().__init__(blocker)
        self._minima_slabs: list[np.ndarray] = []
        self._runner_slabs: list[np.ndarray] = []
        self._exact_maps: list[dict] = [dict() for _ in range(blocker.l)]
        self._probe_maps: list[dict] = [dict() for _ in range(blocker.l)]
        #: Slabs already folded into the exact/probe maps.
        self._maps_cursor = 0
        self.add_many(records)

    def add_many(self, records) -> None:
        blocker = self.blocker
        corpus = blocker.shingler.shingle_corpus(
            records, vocabulary=self._vocabulary
        )
        if not corpus.num_records:
            return
        self.ledger.check(corpus.record_ids)
        minima, runners = blocker.hasher.signature_matrix_with_runner_up(corpus)
        self.ledger.append(corpus.record_ids)
        self._minima_slabs.append(minima)
        self._runner_slabs.append(runners)

    def _ensure_maps(self) -> None:
        slabs = self.ledger.slabs
        for slab in range(self._maps_cursor, len(slabs)):
            self._extend_maps(
                slabs[slab].tolist(),
                self._minima_slabs[slab],
                self._runner_slabs[slab],
            )
        self._maps_cursor = len(slabs)

    def _extend_maps(
        self, record_ids, minima: np.ndarray, runners: np.ndarray
    ) -> None:
        blocker = self.blocker
        exact_keys = split_bands_matrix(minima, blocker.k, blocker.l)
        for table in range(blocker.l):
            exact_map = self._exact_maps[table]
            for rid, key in zip(record_ids, exact_keys[:, table].tolist()):
                exact_map.setdefault(key, []).append(rid)
            probe_map = self._probe_maps[table]
            for keys in blocker._perturbed_keys(minima, runners, table):
                for rid, key in zip(record_ids, keys.tolist()):
                    probe_map.setdefault(key, []).append(rid)

    def query(self, record: Record) -> list[str]:
        self._ensure_maps()
        blocker = self.blocker
        minima, runners = blocker.hasher.signature_with_runner_up(
            blocker.shingler.shingle_ids(record)
        )
        minima, runners = minima.reshape(1, -1), runners.reshape(1, -1)
        exact_keys = split_bands_matrix(minima, blocker.k, blocker.l)[0].tolist()
        seen: set[str] = set()
        found: list[str] = []
        for table, exact_key in enumerate(exact_keys):
            exact_map = self._exact_maps[table]
            self._emit(exact_map.get(exact_key), seen, found, record.record_id)
            self._emit(
                self._probe_maps[table].get(exact_key),
                seen, found, record.record_id,
            )
            for keys in blocker._perturbed_keys(minima, runners, table):
                self._emit(
                    exact_map.get(keys[0]), seen, found, record.record_id
                )
        return found

    def blocks(self):
        ids_all = self.ledger.ids()
        if ids_all.size == 0:
            return make_blocks(())
        minima = np.concatenate(self._minima_slabs)
        runners = np.concatenate(self._runner_slabs)
        keep = self.ledger.live_mask(ids_all)
        if keep is not None:
            ids_all = ids_all[keep]
            minima = minima[keep]
            runners = runners[keep]
        return make_blocks(self.blocker._probe_groups(ids_all, minima, runners))


class OnlineForestIndex(_VariantOnlineBase):
    """The engine of :class:`LSHForestBlocker`, built once, then mutated.

    :meth:`blocks` rebuilds the survivor prefix trees with the batch
    descent (cached until the ledger next mutates). :meth:`query`
    descends each table's survivor tree along the query's band values:
    at every split it follows the partition matching the query's next
    signature position — an empty match means the query would occupy a
    leaf of its own, contributing no candidates from that table.
    """

    def __init__(
        self,
        blocker: LSHForestBlocker,
        records: Iterable[Record] = (),
    ) -> None:
        super().__init__(blocker)
        self._signature_slabs: list[np.ndarray] = []
        #: ``(ledger version, live ids, live signatures)``.
        self._live: tuple[int, np.ndarray, np.ndarray] | None = None
        self.add_many(records)

    def add_many(self, records) -> None:
        blocker = self.blocker
        corpus = blocker.shingler.shingle_corpus(
            records, vocabulary=self._vocabulary
        )
        if not corpus.num_records:
            return
        self.ledger.check(corpus.record_ids)
        signatures = blocker.hasher.signature_matrix(corpus)
        self.ledger.append(corpus.record_ids)
        self._signature_slabs.append(signatures)

    def _live_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        ledger = self.ledger
        if self._live is None or self._live[0] != ledger.version:
            ids_all = ledger.ids()
            if self._signature_slabs:
                signatures = np.concatenate(self._signature_slabs)
            else:
                signatures = np.empty(
                    (0, self.blocker.hasher.num_hashes), dtype=np.uint64
                )
            keep = ledger.live_mask(ids_all)
            if keep is not None:
                ids_all = ids_all[keep]
                signatures = signatures[keep]
            self._live = ledger.version, ids_all, signatures
        return self._live[1], self._live[2]

    def _descend(
        self,
        rows: np.ndarray,
        band: np.ndarray,
        query_band: np.ndarray,
        depth: int,
    ) -> np.ndarray:
        blocker = self.blocker
        while rows.size > blocker.max_block_size and depth < blocker.k:
            matching = rows[band[rows, depth] == query_band[depth]]
            if matching.size != rows.size:
                # A real split: follow the query's partition (empty
                # when no indexed record shares the next position).
                rows = matching
                if rows.size == 0:
                    break
            depth += 1
        return rows

    def query(self, record: Record) -> list[str]:
        ids_all, signatures = self._live_arrays()
        if ids_all.size == 0:
            return []
        blocker = self.blocker
        query_signature = blocker.hasher.signature(
            blocker.shingler.shingle_ids(record)
        )
        seen: set[str] = set()
        found: list[str] = []
        for table in range(blocker.l):
            lo = table * blocker.k
            band = signatures[:, lo : lo + blocker.k]
            query_band = query_signature[lo : lo + blocker.k]
            rows = np.flatnonzero(band[:, 0] == query_band[0])
            rows = self._descend(rows, band, query_band, 1)
            self._emit(ids_all[rows].tolist(), seen, found, record.record_id)
        return found

    def blocks(self):
        ids_all, signatures = self._live_arrays()
        return make_blocks(self.blocker._forest_groups(ids_all, signatures))
