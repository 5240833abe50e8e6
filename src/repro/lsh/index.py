"""The banded LSH index: hash tables of buckets.

Construction is a single pass over the records (O(n * l)); blocks are
the buckets that hold at least two records. The optional semantic gate
(used by SA-LSH) extends each bucket key with suffixes derived from the
record's semhash signature, implementing the w-way AND/OR functions of
paper §5.2 without pairwise work (see DESIGN.md, "O(n) SA-LSH bucket
construction").

Records arrive in *slabs* (:meth:`BandedLSHIndex.add_many`: a whole
corpus, or a streamed chunk of one): slabs are appended cheaply and
the buckets of every table are derived lazily, by one vectorized
sort-and-segment pass over all slabs together, never touching a Python
dict (see DESIGN.md, "Batch signature engine" and "Parallel &
streaming runtime"). Buckets *merge across ``add_many`` calls* —
records from different slabs sharing a (band key, gate suffix) land in
one bucket, exactly as if the concatenated corpus had been inserted in
a single call — which is what lets corpora larger than RAM stream
through blocking slab by slab. Buckets come out in first-occurrence
order with members in insertion order, byte-identical to the
paper-literal record-at-a-time dict loop
(:func:`repro.reference.banded_buckets`).

Beyond construction, the index is a *mutable, long-lived* structure
(the online resolver path): :meth:`BandedLSHIndex.remove` tombstones a
record without regrouping, and :meth:`BandedLSHIndex.query_keys`
answers "which live records share a bucket with these band keys"
without mutating anything. Tombstoned entries are dropped *before*
the deferred grouping runs, so :meth:`BandedLSHIndex.blocks` after
removals is byte-identical to rebuilding the index from the surviving
records in their original insertion order. Removed ids are retired permanently — re-adding one
would resurrect its dead bucket entries — so replacements must use a
fresh id.
"""

from __future__ import annotations

import gc
from itertools import repeat
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.errors import DatasetError
from repro.lsh.bands import dense_band_labels
from repro.records.blocks import BlockList
from repro.utils.parallel import ShardPool, effective_processes

GateFn = Callable[[int, str], Sequence[Hashable]]
#: A gate takes (table_index, record_id) and returns the bucket-key
#: suffixes under which the record is inserted in that table. Returning
#: an empty sequence excludes the record from the table entirely.


def check_new_ids(
    record_ids: Sequence[str], seen: set[str], retired: set[str]
) -> None:
    """Reject a slab of ids an index cannot take, before it mutates.

    A retired id raises ``KeyError`` (re-adding it would resurrect its
    dead entries); an id already indexed, or repeated within the slab,
    raises :class:`~repro.errors.DatasetError` naming it (indexing it
    twice would put one record in a bucket twice). ``seen`` holds every
    id the index has taken, retired ones included.
    """
    if retired and not retired.isdisjoint(record_ids):
        reused = sorted(retired.intersection(record_ids))
        raise KeyError(
            f"record ids {reused!r} were removed and are retired; "
            "re-adding them would resurrect their dead entries"
        )
    fresh = set(record_ids)
    if len(fresh) == len(record_ids) and seen.isdisjoint(fresh):
        return
    slab: set[str] = set()
    for record_id in record_ids:
        if record_id in seen or record_id in slab:
            raise DatasetError(f"duplicate record id {record_id!r}")
        slab.add(record_id)


#: Marker object coding "no gate" entries when gated and ungated slabs
#: meet in one table (they must not share buckets with any real suffix).
_NO_GATE = object()


def _scalar_code(codes: dict[Hashable, int], suffix: Hashable) -> int:
    """Negative integer code of a shared (AND-style) gate suffix.

    Negative codes can never collide with OR-gate suffixes, which are
    non-negative semhash bit indices; distinct scalar suffixes get
    distinct codes, and equal suffixes from different slabs get the
    same code — so cross-slab bucket merging matches a dict keyed by
    (band key, suffix).
    """
    code = codes.get(suffix)
    if code is None:
        code = -1 - len(codes)
        codes[suffix] = code
    return code


#: Batch gate entries for one table: ``(entry_rows, suffixes)`` where
#: ``entry_rows`` are record row indices (one per insertion, possibly
#: repeated for multi-suffix OR gates) and ``suffixes`` is either a
#: single hashable shared by all entries (AND gates) or a per-entry
#: int array (OR gates). An empty ``entry_rows`` excludes every record
#: from the table.
GateEntries = tuple[np.ndarray, "np.ndarray | Hashable"]


def _segment(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort-and-segment equal labels: (order, starts, ends).

    ``order`` is a stable permutation grouping equal labels; group ``g``
    occupies ``order[starts[g]:ends[g]]``. Stability keeps positions
    ascending within each group.
    """
    n = labels.size
    order = None
    if n and labels.dtype.kind == "i":
        low = int(labels.min())
        if (int(labels.max()) - low + 1) <= np.iinfo(np.int64).max // n:
            # (label, position) as one unique int64: any sort of these
            # is the stable sort of the labels, and numpy's default sort
            # runs several times faster than its stable one.
            keys = (labels.astype(np.int64, copy=False) - low) * n
            order = np.argsort(keys + np.arange(n))
    if order is None:
        order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    boundaries = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [labels.size]])
    return order, starts, ends


def grouped_indices(labels: np.ndarray) -> list[np.ndarray]:
    """Group positions of equal labels, vectorized.

    Returns one int array per distinct label. Positions within a group
    are ascending and groups are ordered by first occurrence — exactly
    the order a ``dict``-of-lists insertion loop over ``labels`` would
    produce, which keeps batch blockers byte-identical to their
    per-record reference engines.
    """
    if labels.size == 0:
        return []
    order, starts, ends = _segment(labels)
    # First positions are distinct, so the default sort is exact.
    first_occurrence = np.argsort(order[starts])
    return [
        order[starts[g] : ends[g]] for g in first_occurrence
    ]


class _PendingSlab:
    """One ``add_many`` call, kept raw until the index is finalised.

    Grouping is deferred so that buckets can merge across slabs: the
    index concatenates every slab's keys (and gate entries) per table
    and groups them in one pass, which is both cheaper than re-grouping
    on every call and required for streamed corpora to produce the same
    blocks as a single bulk insertion.
    """

    __slots__ = ("ids", "key_matrix", "gate_entries")

    def __init__(
        self,
        ids: np.ndarray,
        key_matrix: np.ndarray,
        gate_entries: "Sequence[GateEntries | None] | None",
    ) -> None:
        self.ids = ids
        self.key_matrix = key_matrix
        self.gate_entries = gate_entries


class _BulkBuckets:
    """Grouped buckets of the merged bulk insertions for one table.

    ``members`` holds entry rows — positions in the index's
    insertion-order id array — permuted into group order; bucket ``g``
    is ``members[starts[g]:ends[g]]`` and ``emit_order`` lists buckets
    by first occurrence. Keeping the arrays (instead of dict entries)
    makes bulk insertion O(sort) and lets :meth:`BandedLSHIndex.blocks`
    skip singleton buckets without materialising them.
    """

    __slots__ = ("members", "starts", "ends", "emit_order")

    def __init__(
        self,
        members: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        emit_order: np.ndarray,
    ) -> None:
        self.members = members
        self.starts = starts
        self.ends = ends
        self.emit_order = emit_order

    def sizes(self) -> np.ndarray:
        return self.ends - self.starts

    def emitted(self, min_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Sizes and concatenated member rows of the buckets holding at
        least ``min_size`` entries, in emit order — one gather."""
        sizes = self.sizes()
        chosen = self.emit_order[sizes[self.emit_order] >= min_size]
        sizes = sizes[chosen]
        # Output slot i of bucket b reads members[starts[b] + i - out_b],
        # out_b being where b's run begins in the output.
        shift = np.repeat(self.starts[chosen] - (np.cumsum(sizes) - sizes), sizes)
        return sizes, self.members[shift + np.arange(shift.size)]


class BandedLSHIndex:
    """Accumulates records into ``l`` hash tables keyed by band keys.

    ``processes`` routes the bulk bucket grouping through the
    band-sharded process runtime (see DESIGN.md, "Process-sharded
    streaming runtime"): entries are hashed to disjoint label shards,
    each grouped by a worker process, and re-emitted in global
    first-occurrence order — :meth:`blocks` is byte-identical for every
    process count. ``pool`` runs that grouping on a persistent
    :class:`~repro.utils.parallel.ShardPool` (its process count wins)
    instead of an ephemeral pool per grouping pass.
    """

    def __init__(
        self,
        num_tables: int,
        *,
        processes: int | None = 1,
        pool: ShardPool | None = None,
    ) -> None:
        if num_tables < 1:
            raise ValueError(f"need at least one table, got {num_tables}")
        self.num_tables = num_tables
        self.processes = processes
        self.pool = pool
        self._pending: list[_PendingSlab] = []
        #: Lazily derived buckets of all pending slabs, merged: the
        #: bulk id array and one (or no) bucket group per table;
        #: ``None`` marks the cache stale (new slabs arrived or records
        #: were removed since the last grouping).
        self._bulk: tuple[np.ndarray, list[_BulkBuckets | None]] | None = None
        #: Ids ever inserted and ids since retired.
        self._ids_seen: set[str] = set()
        self._tombstones: set[str] = set()
        #: Lazy per-table query maps over the bulk slabs:
        #: ``(band key, suffix) -> [record ids in insertion order]``.
        #: Extended incrementally (``_query_cursor`` counts the slabs
        #: already folded in); removals filter at lookup time, so
        #: neither mutation invalidates the maps.
        self._query_maps: list[dict] | None = None
        self._query_cursor = 0

    def add_many(
        self,
        record_ids: Sequence[str],
        key_matrix: np.ndarray,
        gate_entries: Sequence[GateEntries | None] | None = None,
    ) -> None:
        """Insert a slab of records (a whole corpus, or a chunk of one).

        Parameters
        ----------
        record_ids:
            One id per key-matrix row, in dataset order.
        key_matrix:
            ``(n, num_tables)`` array of band keys, one column per
            table, as produced by
            :func:`repro.lsh.bands.split_bands_matrix` (fixed-width
            ``S{8k}`` bytes; 64-bit integer keys work too).
        gate_entries:
            Optional per-table batch gates (see :data:`GateEntries`);
            ``None`` inserts every record once per table.

        Buckets come out of :meth:`blocks` in first-occurrence order
        with members in insertion order — exactly what a
        record-at-a-time dict loop would produce — at the cost of one
        sort per table instead of per-record dict operations.

        Slabs of one corpus may arrive across *multiple* calls (the
        streaming path): grouping is deferred until :meth:`blocks` /
        :meth:`bucket_sizes`, where all slabs are concatenated per
        table and bucketed together, so records from different slabs
        with equal (band key, gate suffix) share a bucket. Record ids
        must be unique across slabs, as within a dataset (the online
        indexes check each slab with :meth:`check_new_ids` first).
        """
        n = len(record_ids)
        key_matrix = np.asarray(key_matrix)
        if key_matrix.shape[:2] != (n, self.num_tables):
            raise ValueError(
                f"expected a ({n}, {self.num_tables}) key matrix, got "
                f"shape {key_matrix.shape}"
            )
        if gate_entries is not None and len(gate_entries) != self.num_tables:
            raise ValueError(
                f"expected {self.num_tables} gate entries, got {len(gate_entries)}"
            )
        if n == 0:
            return
        if self._tombstones and not self._tombstones.isdisjoint(record_ids):
            retired = sorted(self._tombstones.intersection(record_ids))
            raise KeyError(
                f"record ids {retired!r} were removed and are retired; "
                "re-adding them would resurrect their dead bucket entries"
            )
        self._ids_seen.update(record_ids)
        self._pending.append(
            _PendingSlab(
                np.asarray(record_ids, dtype=object), key_matrix, gate_entries
            )
        )
        self._bulk = None

    def check_new_ids(self, record_ids: Sequence[str]) -> None:
        """Raise unless these ids are new to the index.

        ``KeyError`` for a retired id, :class:`~repro.errors.DatasetError`
        for one already indexed or repeated in the slab; nothing
        changes either way.
        """
        check_new_ids(record_ids, self._ids_seen, self._tombstones)

    def remove(self, record_id: str) -> None:
        """Tombstone one record — O(1), no regrouping.

        The record stops appearing in :meth:`blocks`, :meth:`query_keys`
        and :meth:`bucket_sizes`; dead entries are dropped *before* the
        deferred grouping runs, so the resulting blocks are
        byte-identical to an index rebuilt from the surviving records
        in their original insertion order. The id is retired for the
        index's lifetime (see :meth:`add_many`).

        Raises
        ------
        KeyError
            If the id was never inserted or is already removed.
        """
        if record_id in self._tombstones or record_id not in self._ids_seen:
            raise KeyError(record_id)
        self._tombstones.add(record_id)
        self._bulk = None

    def is_retired(self, record_id: str) -> bool:
        """True when the id was removed (and may never be re-added)."""
        return record_id in self._tombstones

    @property
    def num_live(self) -> int:
        """Distinct inserted ids minus tombstoned ones."""
        return len(self._ids_seen) - len(self._tombstones)

    def retired_ids(self) -> list[str]:
        """Sorted retired ids — the checkpointable removal state."""
        return sorted(self._tombstones)

    def restore_retired(self, record_ids: Iterable[str]) -> None:
        """Re-register retired ids on an index rebuilt from survivors.

        A checkpoint restores an online index by re-inserting the
        surviving records and then replaying the retired-id set through
        this method, so re-adding a removed id keeps raising after
        recovery exactly as it did before the crash. The ids must not
        name live records (they were removed, so a survivor rebuild
        never contains them).
        """
        for record_id in record_ids:
            if record_id in self._ids_seen and record_id not in self._tombstones:
                raise KeyError(
                    f"cannot retire live record {record_id!r} during "
                    "restore; retired ids must be absent from the "
                    "survivor rebuild"
                )
            self._ids_seen.add(record_id)
            self._tombstones.add(record_id)
        self._bulk = None

    def _bulk_ids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(ids, bases, keep)`` of the bulk slabs.

        ``ids`` concatenates every slab's ids in insertion order — the
        array entry rows index; ``bases`` is each slab's first row, and
        ``keep`` the live-row mask (``None`` when nothing was removed).
        """
        slabs = self._pending
        if not slabs:
            return np.empty(0, dtype=object), np.zeros(1, dtype=np.int64), None
        ids_all = (
            slabs[0].ids
            if len(slabs) == 1
            else np.concatenate([slab.ids for slab in slabs])
        )
        bases = np.cumsum([0] + [slab.ids.size for slab in slabs])
        keep = None
        if self._tombstones:
            tombstones = self._tombstones
            keep = np.fromiter(
                (rid not in tombstones for rid in ids_all.tolist()),
                dtype=bool,
                count=ids_all.size,
            )
        return ids_all, bases, keep

    def _merged_bulk(self) -> tuple[np.ndarray, list[_BulkBuckets | None]]:
        """Group all pending slabs per table, merging across slabs.

        Returns the bulk id array and one bucket group (or ``None``)
        per table, whose members are rows of that array. Entries are
        ordered slab-major (call order), record-major within a slab —
        the order a record-at-a-time loop over the concatenated corpus
        inserts them in — so bucket members and first-occurrence
        emission are byte-identical to a single bulk insertion of the
        whole corpus. Tombstoned records are dropped
        here, *before* grouping: surviving entries keep their relative
        order, so partitions, member order and bucket emission order
        all match an index rebuilt from the survivors alone.
        """
        if self._bulk is not None:
            return self._bulk
        ids_all, bases, keep = self._bulk_ids()
        bulk: list[_BulkBuckets | None] = [None] * self.num_tables
        slabs = self._pending
        if slabs:
            entries = [
                self._table_entries(table, slabs, bases, keep)
                for table in range(self.num_tables)
            ]
            if effective_processes(self.processes, self.pool) > 1:
                # Lazy import: sharding's workers import this module.
                from repro.lsh.sharding import group_tables_sharded

                bulk = group_tables_sharded(
                    entries, self.processes, pool=self.pool
                )
            else:
                for table, entry in enumerate(entries):
                    bulk[table] = self._group_entries(entry)
        self._bulk = ids_all, bulk
        return self._bulk

    @staticmethod
    def _group_entries(
        entry: tuple[np.ndarray, np.ndarray] | None,
    ) -> _BulkBuckets | None:
        """Serial sort-and-segment grouping of one table's entries."""
        if entry is None:
            return None
        entry_rows, labels = entry
        order, starts, ends = _segment(labels)
        emit_order = np.argsort(order[starts])
        return _BulkBuckets(entry_rows[order], starts, ends, emit_order)

    def _table_entries(
        self,
        table: int,
        slabs: list[_PendingSlab],
        bases: np.ndarray,
        keep: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """One table's merged entries: ``(entry_rows, labels)``.

        ``entry_rows`` index the bulk id array (:meth:`_bulk_ids`), in
        serial insertion order (slab-major, record-major,
        suffix-ascending for OR gates); bucketing groups equal int64
        ``labels`` — the band keys' exact group numbers
        (:func:`~repro.lsh.bands.dense_band_labels`), combined with an
        integer suffix code when gates apply. ``None`` when the gates
        exclude every record from the table, or when ``keep`` (the
        per-record tombstone mask) leaves no entry standing. Band
        labels are derived from *all* keys including tombstoned rows;
        only the label values differ from a survivor-only rebuild —
        partitioning and first-occurrence emission are label-value
        invariant, so the grouped result is identical.
        """
        keys_all = (
            slabs[0].key_matrix[:, table]
            if len(slabs) == 1
            else np.concatenate([slab.key_matrix[:, table] for slab in slabs])
        )
        band_label = dense_band_labels(keys_all)
        gates = [
            None if slab.gate_entries is None else slab.gate_entries[table]
            for slab in slabs
        ]
        if all(gate is None for gate in gates):
            # Band labels group directly; no per-entry suffixes.
            if keep is None:
                return np.arange(band_label.size, dtype=np.int64), band_label
            rows = np.flatnonzero(keep)
            if rows.size == 0:
                return None
            return rows, band_label[rows]
        # Distinct (band, suffix) pairs need distinct labels: give
        # every suffix an integer code — OR-gate bit indices stay
        # themselves (non-negative, comparable across slabs), shared
        # AND-style suffixes get negative codes by first occurrence —
        # then stride the band label by the code range.
        scalar_codes: dict[Hashable, int] = {}
        rows_parts: list[np.ndarray] = []
        suffix_parts: list[np.ndarray] = []
        for slab, gate, base in zip(slabs, gates, bases):
            if gate is None:
                rows = np.arange(slab.ids.size, dtype=np.int64) + base
                suffix_values = np.full(
                    rows.size, _scalar_code(scalar_codes, _NO_GATE), np.int64
                )
            else:
                entry_rows, suffixes = gate
                entry_rows = np.asarray(entry_rows, dtype=np.int64)
                if entry_rows.size == 0:
                    continue
                rows = entry_rows + base
                if isinstance(suffixes, np.ndarray):
                    suffix_values = suffixes.astype(np.int64, copy=False)
                else:
                    suffix_values = np.full(
                        rows.size, _scalar_code(scalar_codes, suffixes), np.int64
                    )
            rows_parts.append(rows)
            suffix_parts.append(suffix_values)
        if not rows_parts:
            return None
        entry_rows = np.concatenate(rows_parts)
        suffix_values = np.concatenate(suffix_parts)
        if keep is not None:
            mask = keep[entry_rows]
            entry_rows = entry_rows[mask]
            suffix_values = suffix_values[mask]
            if entry_rows.size == 0:
                return None
        low = int(suffix_values.min())
        span = int(suffix_values.max()) - low + 1
        labels = band_label[entry_rows] * span + (suffix_values - low)
        return entry_rows, labels

    def blocks(self, *, min_size: int = 2) -> BlockList:
        """All buckets holding at least ``min_size`` records, as one CSR
        block list over the index's ids.

        Tables come in order, each with its buckets by first occurrence;
        bucket contents preserve insertion order. A bucket from table t
        is independent of buckets from other tables (blocks may overlap,
        as the paper's framework intends). Buckets go out as rows of the
        insertion-order id array with no per-bucket Python object.
        """
        ids_all, merged = self._merged_bulk()
        sizes: list[np.ndarray] = []
        rows: list[np.ndarray] = []
        for bulk in merged:
            if bulk is not None:
                table_sizes, table_rows = bulk.emitted(min_size)
                sizes.append(table_sizes)
                rows.append(table_rows)
        offsets = np.zeros(sum(part.size for part in sizes) + 1, dtype=np.int64)
        if sizes:
            np.cumsum(np.concatenate(sizes), out=offsets[1:])
        indices = (
            np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        )
        return BlockList(ids_all, offsets, indices)

    def bucket_sizes(self) -> list[int]:
        """Sizes of all non-empty buckets (diagnostics)."""
        return [
            size
            for bulk in self._merged_bulk()[1]
            if bulk is not None
            for size in bulk.sizes()[bulk.emit_order].tolist()
        ]

    def _ensure_query_maps(self) -> list[dict]:
        """Fold any new bulk slabs into the per-table query maps.

        The maps index the entries by ``(band key, suffix)`` with
        members in insertion order. The fold is append-only — each slab
        is visited exactly once across the index's lifetime, so a query
        after ``add_many`` costs O(new slab entries), not O(index).

        The cyclic garbage collector is paused while slabs fold: a
        fold makes one list and one key tuple per new bucket (about
        430k for a 20k-record voter index at l = 15) and no reference
        cycles, so the collections those allocations would trigger
        find nothing and cost most of the fold. The caller's collector
        state is restored on the way out.
        """
        if self._query_maps is None:
            self._query_maps = [{} for _ in range(self.num_tables)]
        if self._query_cursor < len(self._pending):
            collecting = gc.isenabled()
            gc.disable()
            try:
                for slab in self._pending[self._query_cursor:]:
                    self._extend_query_maps(slab)
            finally:
                if collecting:
                    gc.enable()
            self._query_cursor = len(self._pending)
        return self._query_maps

    def _extend_query_maps(self, slab: _PendingSlab) -> None:
        # One tolist() per array, then plain Python: a one-record slab
        # would otherwise pay numpy's per-call cost several times per
        # table.
        ids = slab.ids.tolist()
        for table, keys in enumerate(slab.key_matrix.T.tolist()):
            bucket_map = self._query_maps[table]
            gate = None if slab.gate_entries is None else slab.gate_entries[table]
            if gate is None:
                for rid, key in zip(ids, keys):
                    bucket_map.setdefault((key, _NO_GATE), []).append(rid)
                continue
            entry_rows, suffixes = gate
            rows = np.asarray(entry_rows, dtype=np.int64).tolist()
            if isinstance(suffixes, np.ndarray):
                suffixes = suffixes.tolist()
            else:
                suffixes = repeat(suffixes)
            for row, suffix in zip(rows, suffixes):
                bucket_map.setdefault((keys[row], suffix), []).append(ids[row])

    def query_keys(
        self,
        keys: Sequence[Hashable],
        gate: GateFn | None = None,
        *,
        record_id: str | None = None,
    ) -> list[str]:
        """Live records sharing at least one bucket with these band keys.

        The query does not mutate the index: nothing is inserted, and
        the lazily built bulk query maps stay valid across later
        ``add_many``/``remove`` calls (new slabs are folded in on the
        next query; removals filter at lookup time).

        Parameters
        ----------
        keys:
            One band key per table, in the key convention of the
            inserted slabs (:func:`~repro.lsh.bands.record_band_keys`
            for :func:`~repro.lsh.bands.split_bands_matrix` slabs).
        gate:
            Optional semantic gate; for each table the query probes one
            bucket per suffix the gate yields (an empty yield skips the
            table, mirroring insertion-side exclusion).
        record_id:
            Optional id excluded from the result (the query record
            itself, when it is already indexed).

        Returns candidate ids in first-encounter order: table-major,
        bucket insertion order within a table — deduplicated.
        """
        if len(keys) != self.num_tables:
            raise ValueError(
                f"expected {self.num_tables} band keys, got {len(keys)}"
            )
        if not self._pending:
            return []
        query_maps = self._ensure_query_maps()
        tombstones = self._tombstones
        seen: set[str] = set()
        found: list[str] = []
        for table_index, key in enumerate(keys):
            suffixes: Sequence[Hashable] = (
                (_NO_GATE,) if gate is None else gate(table_index, record_id or "")
            )
            bucket_map = query_maps[table_index]
            for suffix in suffixes:
                for member in bucket_map.get((key, suffix), ()):
                    if (
                        member not in seen
                        and member not in tombstones
                        and member != record_id
                    ):
                        seen.add(member)
                        found.append(member)
        return found
