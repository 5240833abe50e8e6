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
from repro.lsh.index import check_new_ids, grouped_indices
from repro.lsh.sharding import runner_up_signature_slabs
from repro.minhash.corpus import ShingledCorpus, ShingleVocabulary
from repro.minhash.minhash import MinHasher, compact_vocabulary, sentinel_stream
from repro.records.record import Record
from repro.utils.hashing import MERSENNE_PRIME_61
from repro.utils.parallel import ShardPool


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

        Works like :meth:`MinHasher.signature_matrix` (vocabulary-level
        hashing + ``reduceat`` minima over the CSR token stream, in the
        layout :meth:`MinHasher.gathered_blocks` picks for the stream
        length), then recovers each segment's runner-up by masking the
        *first* occurrence of the minimum with the sentinel and reducing
        again — duplicated minima therefore survive as their own
        runner-up, byte-identical to the per-record sort. Like the plain
        signature matrix, the hash functions run as a serial loop over
        blocks capped at ``chunk_elements`` values.
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
    _slab_pass = staticmethod(runner_up_signature_slabs)

    def __init__(
        self,
        attributes: tuple[str, ...],
        q: int | None,
        k: int,
        l: int,
        *,
        num_probes: int | None = None,
        seed: int = 0,
        processes: int | None = 1,
        pool: ShardPool | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(
            attributes, q, k, l, seed=seed,
            processes=processes, pool=pool, name=name,
        )
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
            lo = table * self.k
            band = minima[:, lo : lo + self.k]
            # Probe keys in (record-major, probe-row) order, matching the
            # per-record insertion order of the reference engine.
            probe_cols = []
            for probe_row in range(self.num_probes):
                perturbed = band.copy()
                perturbed[:, probe_row] = runners[:, lo + probe_row]
                probe_cols.append(
                    np.ascontiguousarray(perturbed)
                    .reshape(-1)
                    .view(f"S{8 * self.k}")
                )
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
        processes: int | None = 1,
        pool: ShardPool | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(
            attributes, q, k, l, seed=seed,
            processes=processes, pool=pool, name=name,
        )
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
    """Shared slab/tombstone bookkeeping of the variant online indexes.

    Both variants accumulate per-slab signature arrays (one growing
    shingle vocabulary, signatures identical to the batch rows) and
    tombstone removals by id; :meth:`blocks` concatenates the surviving
    rows in insertion order and reruns the owning blocker's batch
    grouping, so incremental results equal a from-scratch rebuild.
    Removed ids are retired permanently, as in
    :class:`~repro.lsh.index.BandedLSHIndex`.
    """

    def __init__(self, blocker: LSHFamilyBlocker) -> None:
        self.blocker = blocker
        self._vocabulary = ShingleVocabulary()
        self._id_slabs: list[np.ndarray] = []
        self._ids_seen: set[str] = set()
        self._tombstones: set[str] = set()

    def add_many(self, records) -> None:
        blocker = self.blocker
        corpus = blocker.shingler.shingle_corpus(
            records, vocabulary=self._vocabulary
        )
        if corpus.num_records:
            self.add_signatures(corpus.record_ids, *self._signature_rows(corpus))

    def _take_ids(self, record_ids) -> None:
        """Check a slab's ids (see :func:`~repro.lsh.index.
        check_new_ids`) and record them as indexed."""
        check_new_ids(record_ids, self._ids_seen, self._tombstones)
        self._ids_seen.update(record_ids)
        self._id_slabs.append(np.asarray(record_ids, dtype=object))

    def remove(self, record_id: str) -> None:
        if record_id in self._tombstones or record_id not in self._ids_seen:
            raise KeyError(record_id)
        self._tombstones.add(record_id)

    def is_retired(self, record_id: str) -> bool:
        return record_id in self._tombstones

    @property
    def num_live(self) -> int:
        return len(self._ids_seen) - len(self._tombstones)

    def checkpoint(self) -> dict:
        return {"kind": self.blocker.name, "retired": sorted(self._tombstones)}

    def restore(self, state: dict) -> None:
        for record_id in state.get("retired", ()):
            if (
                record_id in self._ids_seen
                and record_id not in self._tombstones
            ):
                raise KeyError(
                    f"cannot retire live record {record_id!r} during "
                    "restore; retired ids must be absent from the "
                    "survivor rebuild"
                )
            self._ids_seen.add(record_id)
            self._tombstones.add(record_id)

    def _all_ids(self) -> np.ndarray:
        if not self._id_slabs:
            return np.empty(0, dtype=object)
        if len(self._id_slabs) == 1:
            return self._id_slabs[0]
        return np.concatenate(self._id_slabs)

    def _keep_mask(self, ids_all: np.ndarray) -> np.ndarray | None:
        if not self._tombstones:
            return None
        tombstones = self._tombstones
        return np.fromiter(
            (rid not in tombstones for rid in ids_all.tolist()),
            dtype=bool,
            count=ids_all.size,
        )

    def _emit(
        self, members, seen: set[str], found: list[str], record_id: str
    ) -> None:
        for member in members or ():
            if (
                member not in seen
                and member not in self._tombstones
                and member != record_id
            ):
                seen.add(member)
                found.append(member)


def _concatenated(slabs: list[np.ndarray]) -> np.ndarray:
    return slabs[0] if len(slabs) == 1 else np.concatenate(slabs)


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

    def _signature_rows(self, corpus: ShingledCorpus):
        return self.blocker.hasher.signature_matrix_with_runner_up(corpus)

    def add_signatures(
        self, record_ids, minima: np.ndarray, runners: np.ndarray
    ) -> None:
        """Index a slab whose minima and runner-ups are computed."""
        self._take_ids(record_ids)
        self._minima_slabs.append(minima)
        self._runner_slabs.append(runners)

    def _ensure_maps(self) -> None:
        for slab in range(self._maps_cursor, len(self._id_slabs)):
            self._extend_maps(
                self._id_slabs[slab].tolist(),
                self._minima_slabs[slab],
                self._runner_slabs[slab],
            )
        self._maps_cursor = len(self._id_slabs)

    def _extend_maps(
        self, record_ids, minima: np.ndarray, runners: np.ndarray
    ) -> None:
        blocker = self.blocker
        k = blocker.k
        exact_keys = split_bands_matrix(minima, k, blocker.l)
        for table in range(blocker.l):
            exact_map = self._exact_maps[table]
            for rid, key in zip(record_ids, exact_keys[:, table].tolist()):
                exact_map.setdefault(key, []).append(rid)
            probe_map = self._probe_maps[table]
            lo = table * k
            band = minima[:, lo : lo + k]
            for probe_row in range(blocker.num_probes):
                perturbed = band.copy()
                perturbed[:, probe_row] = runners[:, lo + probe_row]
                keys = (
                    np.ascontiguousarray(perturbed)
                    .reshape(-1)
                    .view(f"S{8 * k}")
                    .tolist()
                )
                for rid, key in zip(record_ids, keys):
                    probe_map.setdefault(key, []).append(rid)

    def query(self, record: Record) -> list[str]:
        self._ensure_maps()
        blocker = self.blocker
        minima, runners = blocker.hasher.signature_with_runner_up(
            blocker.shingler.shingle_ids(record)
        )
        k = blocker.k
        seen: set[str] = set()
        found: list[str] = []
        for table in range(blocker.l):
            lo = table * k
            band = np.ascontiguousarray(minima[lo : lo + k])
            exact_key = band.view(f"S{8 * k}")[0]
            self._emit(
                self._exact_maps[table].get(exact_key),
                seen, found, record.record_id,
            )
            self._emit(
                self._probe_maps[table].get(exact_key),
                seen, found, record.record_id,
            )
            for probe_row in range(blocker.num_probes):
                perturbed = band.copy()
                perturbed[probe_row] = runners[lo + probe_row]
                probe_key = perturbed.view(f"S{8 * k}")[0]
                self._emit(
                    self._exact_maps[table].get(probe_key),
                    seen, found, record.record_id,
                )
        return found

    def blocks(self):
        ids_all = self._all_ids()
        if ids_all.size == 0:
            return make_blocks(())
        minima = _concatenated(self._minima_slabs)
        runners = _concatenated(self._runner_slabs)
        keep = self._keep_mask(ids_all)
        if keep is not None:
            ids_all = ids_all[keep]
            minima = minima[keep]
            runners = runners[keep]
        return make_blocks(self.blocker._probe_groups(ids_all, minima, runners))


class OnlineForestIndex(_VariantOnlineBase):
    """The engine of :class:`LSHForestBlocker`, built once, then mutated.

    :meth:`blocks` rebuilds the survivor prefix trees with the batch
    descent (cached until the next mutation). :meth:`query` descends
    each table's survivor tree along the query's band values: at every
    split it follows the partition matching the query's next signature
    position — an empty match means the query would occupy a leaf of
    its own, contributing no candidates from that table.
    """

    def __init__(
        self,
        blocker: LSHForestBlocker,
        records: Iterable[Record] = (),
    ) -> None:
        super().__init__(blocker)
        self._signature_slabs: list[np.ndarray] = []
        self._live: tuple[np.ndarray, np.ndarray] | None = None
        self.add_many(records)

    def _signature_rows(self, corpus: ShingledCorpus):
        return (self.blocker.hasher.signature_matrix(corpus),)

    def add_signatures(self, record_ids, signatures: np.ndarray) -> None:
        """Index a slab whose signature rows are computed."""
        self._take_ids(record_ids)
        self._signature_slabs.append(signatures)
        self._live = None

    def remove(self, record_id: str) -> None:
        super().remove(record_id)
        self._live = None

    def restore(self, state: dict) -> None:
        super().restore(state)
        self._live = None

    def _live_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._live is None:
            ids_all = self._all_ids()
            if self._signature_slabs:
                signatures = _concatenated(self._signature_slabs)
            else:
                signatures = np.empty(
                    (0, self.blocker.hasher.num_hashes), dtype=np.uint64
                )
            keep = self._keep_mask(ids_all)
            if keep is not None:
                ids_all = ids_all[keep]
                signatures = signatures[keep]
            self._live = (ids_all, signatures)
        return self._live

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
