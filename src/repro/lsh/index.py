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
dict (see DESIGN.md, "Batch signature engine" and "Streaming
runtime"). Buckets *merge across ``add_many`` calls* —
records from different slabs sharing a (band key, gate suffix) land in
one bucket, exactly as if the concatenated corpus had been inserted in
a single call — which is what lets corpora larger than RAM stream
through blocking slab by slab. Buckets come out in first-occurrence
order with members in insertion order, byte-identical to the
paper-literal record-at-a-time dict loop
(:func:`repro.reference.banded_buckets`).

Beyond construction, the index is a *mutable, long-lived* structure
(the online resolver path). Its :class:`RecordLedger` owns the ids:
:meth:`BandedLSHIndex.remove` retires a record without regrouping, and
:meth:`BandedLSHIndex.query_keys` answers "which live records share a
bucket with these band keys" without mutating anything. Retired
entries are dropped *before* the deferred grouping runs, so
:meth:`BandedLSHIndex.blocks` after removals is byte-identical to
rebuilding the index from the surviving records in their original
insertion order. Removed ids are retired permanently — re-adding one
would resurrect its dead bucket entries — so replacements must use a
fresh id.
"""

from __future__ import annotations

import gc
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.errors import DatasetError
from repro.lsh.bands import dense_band_labels
from repro.records.blocks import BlockList


class RecordLedger:
    """The record ids an online index holds, and which of them are retired.

    Each online index keeps one ledger (the banded ones through their
    :class:`BandedLSHIndex`); it owns

    * ``slabs``: one id array per accepted slab, in insertion order —
      the rows derived arrays (band keys, signatures) line up with;
    * ``seen`` (every id ever taken, retired ones included) and
      ``retired`` (removed ids, never to be taken again);
    * ``version``, a count of mutations: caches derived from the ids
      compare it instead of being cleared by each mutator.

    An id enters once. :meth:`check` is the one id check, run on every
    slab before anything of the index mutates; :meth:`append` then
    records the slab.
    """

    def __init__(self) -> None:
        self.slabs: list[np.ndarray] = []
        self.seen: set[str] = set()
        self.retired: set[str] = set()
        self.version = 0

    def check(self, record_ids: Sequence[str]) -> None:
        """Raise unless every id of a slab is new; nothing changes.

        A retired id raises ``KeyError`` (re-adding it would resurrect
        its dead entries); an id already indexed, or repeated within
        the slab, raises :class:`~repro.errors.DatasetError` naming it
        (indexing it twice would put one record in a bucket twice).
        """
        retired = self.retired
        if retired and not retired.isdisjoint(record_ids):
            reused = sorted(retired.intersection(record_ids))
            raise KeyError(
                f"record ids {reused!r} were removed and are retired; "
                "re-adding them would resurrect their dead entries"
            )
        fresh = set(record_ids)
        if len(fresh) == len(record_ids) and self.seen.isdisjoint(fresh):
            return
        slab: set[str] = set()
        for record_id in record_ids:
            if record_id in self.seen or record_id in slab:
                raise DatasetError(f"duplicate record id {record_id!r}")
            slab.add(record_id)

    def append(self, record_ids: Sequence[str]) -> None:
        """Record a checked, non-empty slab as indexed."""
        self.seen.update(record_ids)
        self.slabs.append(np.asarray(record_ids, dtype=object))
        self.version += 1

    def retire(self, record_id: str) -> None:
        """Retire one indexed id; ``KeyError`` if it was never taken or
        is retired already."""
        if record_id in self.retired or record_id not in self.seen:
            raise KeyError(record_id)
        self.retired.add(record_id)
        self.version += 1

    def restore(self, record_ids: Iterable[str]) -> None:
        """Re-register retired ids on an index rebuilt from survivors.

        A checkpoint restores an online index by re-inserting the
        surviving records and then replaying the retired-id set through
        this method, so re-adding a removed id keeps raising after
        recovery exactly as it did before the crash. The ids must not
        name live records (they were removed, so a survivor rebuild
        never contains them).
        """
        restored = set(record_ids)
        live = (restored & self.seen) - self.retired
        if live:
            raise KeyError(
                f"cannot retire live records {sorted(live)!r} during "
                "restore; retired ids must be absent from the survivor "
                "rebuild"
            )
        self.seen |= restored
        self.retired |= restored
        self.version += 1

    @property
    def num_live(self) -> int:
        """Ids taken minus ids retired."""
        return len(self.seen) - len(self.retired)

    def ids(self) -> np.ndarray:
        """Every taken id in insertion order, retired ones included."""
        slabs = self.slabs
        if not slabs:
            return np.empty(0, dtype=object)
        return slabs[0] if len(slabs) == 1 else np.concatenate(slabs)

    def live_mask(self, ids: np.ndarray) -> np.ndarray | None:
        """True at the live positions of ``ids`` (as :meth:`ids` returns
        them); ``None`` when nothing is retired."""
        retired = self.retired
        if not retired:
            return None
        return np.fromiter(
            (record_id not in retired for record_id in ids.tolist()),
            dtype=bool,
            count=ids.size,
        )


#: Batch gate entries for one table: ``(entry_rows, suffixes)``, two
#: aligned int64 arrays. ``entry_rows`` are record row indices (one per
#: insertion, repeated for multi-suffix OR gates) and ``suffixes`` the
#: integer suffix codes: semhash bit indices for OR gates, one fixed
#: negative code for AND gates. An empty ``entry_rows`` excludes every
#: record from the table.
GateEntries = tuple[np.ndarray, np.ndarray]


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
    """Accumulates records into ``l`` hash tables keyed by band keys."""

    def __init__(self, num_tables: int) -> None:
        if num_tables < 1:
            raise ValueError(f"need at least one table, got {num_tables}")
        self.num_tables = num_tables
        #: The ids of the inserted slabs, in step with ``_pending``.
        self.ledger = RecordLedger()
        #: ``(key_matrix, gate_entries)`` of each inserted slab.
        self._pending: list[tuple[np.ndarray, Sequence[GateEntries] | None]] = []
        #: Lazily derived buckets of all slabs, merged: the ledger
        #: version they were grouped at, the bulk id array and one (or
        #: no) bucket group per table.
        self._bulk: tuple[int, np.ndarray, list[_BulkBuckets | None]] | None = None
        #: Lazy per-table query maps over the slabs: ``band key`` (or
        #: ``(band key, suffix)`` when gated) ``-> [record ids in
        #: insertion order]``. Extended incrementally (``_query_cursor``
        #: counts the slabs already folded in); removals filter at
        #: lookup time, so neither mutation invalidates the maps.
        self._query_maps: list[dict] | None = None
        self._query_cursor = 0

    def add_many(
        self,
        record_ids: Sequence[str],
        key_matrix: np.ndarray,
        gate_entries: Sequence[GateEntries] | None = None,
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
            ``None`` inserts every record once per table. An index's
            slabs are either all gated or all ungated.

        Buckets come out of :meth:`blocks` in first-occurrence order
        with members in insertion order — exactly what a
        record-at-a-time dict loop would produce — at the cost of one
        sort per table instead of per-record dict operations.

        Slabs of one corpus may arrive across *multiple* calls (the
        streaming path): grouping is deferred until :meth:`blocks` /
        :meth:`bucket_sizes`, where all slabs are concatenated per
        table and bucketed together, so records from different slabs
        with equal (band key, gate suffix) share a bucket. Record ids
        must be new to the index: callers run ``ledger.check`` on each
        slab first, before anything else of theirs mutates (the online
        indexes do).
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
        if self._pending and (gate_entries is None) != (self._pending[0][1] is None):
            raise ValueError("an index's slabs are either all gated or all ungated")
        if n == 0:
            return
        self.ledger.append(record_ids)
        self._pending.append((key_matrix, gate_entries))

    def remove(self, record_id: str) -> None:
        """Retire one record — O(1), no regrouping.

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
        self.ledger.retire(record_id)

    def _merged_bulk(self) -> tuple[np.ndarray, list[_BulkBuckets | None]]:
        """Group all slabs per table, merging across slabs.

        Returns the bulk id array and one bucket group (or ``None``)
        per table, whose members are rows of that array. Entries are
        ordered slab-major (call order), record-major within a slab —
        the order a record-at-a-time loop over the concatenated corpus
        inserts them in — so bucket members and first-occurrence
        emission are byte-identical to a single bulk insertion of the
        whole corpus. Retired records are dropped here, *before*
        grouping: surviving entries keep their relative order, so
        partitions, member order and bucket emission order all match an
        index rebuilt from the survivors alone. The grouping is cached
        until the ledger next mutates.
        """
        ledger = self.ledger
        if self._bulk is not None and self._bulk[0] == ledger.version:
            return self._bulk[1], self._bulk[2]
        ids_all = ledger.ids()
        keep = ledger.live_mask(ids_all)
        bases = np.cumsum([0] + [slab.size for slab in ledger.slabs])
        bulk: list[_BulkBuckets | None] = [None] * self.num_tables
        if self._pending:
            for table in range(self.num_tables):
                bulk[table] = self._group_entries(
                    self._table_entries(table, bases, keep)
                )
        self._bulk = ledger.version, ids_all, bulk
        return ids_all, bulk

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
        self, table: int, bases: np.ndarray, keep: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """One table's merged entries: ``(entry_rows, labels)``.

        ``entry_rows`` index the bulk id array (``ledger.ids()``), in
        serial insertion order (slab-major, record-major,
        suffix-ascending for OR gates); ``bases`` is each slab's first
        row. Bucketing groups equal int64 ``labels`` — the band keys'
        exact group numbers
        (:func:`~repro.lsh.bands.dense_band_labels`), combined with the
        suffix code when gates apply. ``None`` when the gates exclude
        every record from the table, or when ``keep`` (the live-row
        mask) leaves no entry standing. Band labels are derived from
        *all* keys including retired rows; only the label values
        differ from a survivor-only rebuild — partitioning and
        first-occurrence emission are label-value invariant, so the
        grouped result is identical.
        """
        slabs = self._pending
        keys_all = (
            slabs[0][0][:, table]
            if len(slabs) == 1
            else np.concatenate([keys[:, table] for keys, _ in slabs])
        )
        band_label = dense_band_labels(keys_all)
        if slabs[0][1] is None:
            # Band labels group directly; no per-entry suffixes.
            if keep is None:
                return np.arange(band_label.size, dtype=np.int64), band_label
            rows = np.flatnonzero(keep)
            if rows.size == 0:
                return None
            return rows, band_label[rows]
        # Distinct (band, suffix) pairs need distinct labels: stride
        # the band label by the range of the suffix codes, which are
        # comparable across slabs (bit indices, or the AND code).
        entry_rows = np.concatenate(
            [
                np.asarray(gates[table][0], dtype=np.int64) + base
                for (_, gates), base in zip(slabs, bases)
            ]
        )
        suffix_values = np.concatenate(
            [np.asarray(gates[table][1], dtype=np.int64) for _, gates in slabs]
        )
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
        """Fold any new slabs into the per-table query maps.

        The maps index the entries by band key (and gate suffix) with
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
        cursor = self._query_cursor
        if cursor < len(self._pending):
            collecting = gc.isenabled()
            gc.disable()
            try:
                for ids, (key_matrix, gates) in zip(
                    self.ledger.slabs[cursor:], self._pending[cursor:]
                ):
                    self._extend_query_maps(ids, key_matrix, gates)
            finally:
                if collecting:
                    gc.enable()
            self._query_cursor = len(self._pending)
        return self._query_maps

    def _extend_query_maps(
        self,
        ids: np.ndarray,
        key_matrix: np.ndarray,
        gates: Sequence[GateEntries] | None,
    ) -> None:
        # One tolist() per array, then plain Python: a one-record slab
        # would otherwise pay numpy's per-call cost several times per
        # table.
        ids = ids.tolist()
        for table, keys in enumerate(key_matrix.T.tolist()):
            bucket_map = self._query_maps[table]
            if gates is None:
                for rid, key in zip(ids, keys):
                    bucket_map.setdefault(key, []).append(rid)
                continue
            entry_rows, suffixes = gates[table]
            for row, suffix in zip(entry_rows.tolist(), suffixes.tolist()):
                bucket_map.setdefault((keys[row], suffix), []).append(ids[row])

    def query_keys(
        self,
        keys: Sequence[Hashable],
        suffixes: Sequence[Sequence[int]] | None = None,
        *,
        record_id: str | None = None,
    ) -> list[str]:
        """Live records sharing at least one bucket with these band keys.

        The query does not mutate the index: nothing is inserted, and
        the lazily built query maps stay valid across later
        ``add_many``/``remove`` calls (new slabs are folded in on the
        next query; removals filter at lookup time).

        Parameters
        ----------
        keys:
            One band key per table, in the key convention of the
            inserted slabs (:func:`~repro.lsh.bands.record_band_keys`
            for :func:`~repro.lsh.bands.split_bands_matrix` slabs).
        suffixes:
            For a gated index, the probe's gate suffix codes per table
            (e.g. :meth:`~repro.semantic.hashing.WWaySemanticHashFamily.
            probe_suffixes`); the query probes one bucket per suffix,
            and an empty tuple skips the table, mirroring
            insertion-side exclusion. ``None`` for an ungated index.
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
        retired = self.ledger.retired
        seen: set[str] = set()
        found: list[str] = []
        for table, key in enumerate(keys):
            bucket_map = query_maps[table]
            buckets = (
                (bucket_map.get(key, ()),)
                if suffixes is None
                else [bucket_map.get((key, suffix), ()) for suffix in suffixes[table]]
            )
            for bucket in buckets:
                for member in bucket:
                    if (
                        member not in seen
                        and member not in retired
                        and member != record_id
                    ):
                        seen.add(member)
                        found.append(member)
        return found
