"""The :class:`Dataset` container.

A dataset is an ordered collection of :class:`~repro.records.Record`
objects with unique ids, plus cached ground-truth structures used by the
evaluation measures (PC needs ``Ωtp``; RR needs ``|Ω|``).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import DatasetError
from repro.records.ground_truth import Pair, entity_clusters, true_match_pairs
from repro.records.record import Record


class Dataset:
    """An ordered, immutable collection of records.

    Parameters
    ----------
    records:
        The records; ids must be unique.
    name:
        Optional human-readable name used in reports.
    """

    def __init__(self, records: Iterable[Record], name: str = "dataset") -> None:
        self._records: tuple[Record, ...] = tuple(records)
        self.name = name
        seen: set[str] = set()
        for record in self._records:
            if record.record_id in seen:
                raise DatasetError(f"duplicate record id {record.record_id!r}")
            seen.add(record.record_id)
        self._by_id = {r.record_id: r for r in self._records}

    # -- collection protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __getitem__(self, record_id: str) -> Record:
        try:
            return self._by_id[record_id]
        except KeyError:
            raise DatasetError(f"no record with id {record_id!r}") from None

    def __contains__(self, record_id: object) -> bool:
        return record_id in self._by_id

    @property
    def records(self) -> Sequence[Record]:
        return self._records

    @property
    def record_ids(self) -> list[str]:
        return list(self._ids)

    # -- integer id codec -----------------------------------------------------

    @cached_property
    def _index_by_id(self) -> dict[str, int]:
        return {r.record_id: i for i, r in enumerate(self._records)}

    @cached_property
    def _ids(self) -> list[str]:
        return [r.record_id for r in self._records]

    def index_of(self, record_id: str) -> int:
        """Contiguous ``int`` index of a record (dataset order)."""
        try:
            return self._index_by_id[record_id]
        except KeyError:
            raise DatasetError(f"no record with id {record_id!r}") from None

    def encode_ids(self, record_ids: Iterable[str]) -> np.ndarray:
        """Record ids -> contiguous ``int32`` indices (dataset order).

        Raises
        ------
        DatasetError
            If any id does not belong to the dataset.
        """
        index = self._index_by_id
        count = len(record_ids) if hasattr(record_ids, "__len__") else -1
        try:
            return np.fromiter(
                (index[rid] for rid in record_ids), dtype=np.int32, count=count
            )
        except KeyError as exc:
            raise DatasetError(f"no record with id {exc.args[0]!r}") from None

    def decode_ids(self, indices: Iterable[int]) -> list[str]:
        """Inverse of :meth:`encode_ids`."""
        ids = self._ids
        return [ids[i] for i in np.asarray(indices).tolist()]

    # -- ground truth ---------------------------------------------------------

    @cached_property
    def true_matches(self) -> set[Pair]:
        """The set ``Ωtp`` of labelled true-match pairs."""
        return true_match_pairs(self._records)

    @cached_property
    def true_match_keys(self) -> np.ndarray:
        """``Ωtp`` as sorted ``uint64`` pair keys over the id codec.

        Derived directly from the entity clusters (no Python pair set),
        and cached so repeated evaluations — tuning sweeps, the
        evaluation runner — never re-derive the ground truth.
        """
        from repro.records.pairs import enumerate_csr_pairs, unique_pair_keys

        return unique_pair_keys(*enumerate_csr_pairs(*self._cluster_csr))

    @cached_property
    def _cluster_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The entity clusters of two or more records as CSR
        ``(offsets, indices)`` over dataset positions."""
        index = self._index_by_id
        members = [
            [index[rid] for rid in cluster]
            for cluster in self.clusters.values()
            if len(cluster) >= 2
        ]
        offsets = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum([len(m) for m in members], dtype=np.int64, out=offsets[1:])
        indices = np.fromiter(
            (i for m in members for i in m), dtype=np.int32, count=int(offsets[-1])
        )
        return offsets, indices

    @cached_property
    def clusters(self) -> dict[str, list[str]]:
        """Record ids grouped by ground-truth entity."""
        return entity_clusters(self._records)

    @property
    def num_true_matches(self) -> int:
        return int(self.true_match_keys.size)

    @property
    def total_pairs(self) -> int:
        """``|Ω|``: the number of distinct record pairs in the dataset."""
        n = len(self._records)
        return n * (n - 1) // 2

    # -- attribute columns ----------------------------------------------------

    @cached_property
    def _attribute_codes(self) -> dict[str, tuple[np.ndarray, list[str]]]:
        return {}

    def attribute_codes(self, attribute: str) -> tuple[np.ndarray, list[str]]:
        """``(codes, uniques)`` factorization of one attribute column.

        ``codes[i]`` indexes into ``uniques`` (sorted distinct values);
        cached per attribute so batch matchers gather each column once.
        """
        cached = self._attribute_codes.get(attribute)
        if cached is None:
            values = np.asarray(
                [r.get(attribute) for r in self._records], dtype=object
            )
            if values.size:
                uniques, codes = np.unique(values, return_inverse=True)
                cached = (codes.astype(np.int64), uniques.tolist())
            else:
                cached = (np.empty(0, dtype=np.int64), [])
            self._attribute_codes[attribute] = cached
        return cached

    def is_true_match(self, id1: str, id2: str) -> bool:
        """True when both records are labelled with the same entity."""
        e1 = self._by_id[id1].entity_id
        e2 = self._by_id[id2].entity_id
        return e1 is not None and e1 == e2

    # -- derived datasets -----------------------------------------------------

    def subset(self, record_ids: Iterable[str], name: str | None = None) -> "Dataset":
        """Dataset restricted to ``record_ids`` (order preserved)."""
        wanted = set(record_ids)
        kept = [r for r in self._records if r.record_id in wanted]
        return Dataset(kept, name=name or f"{self.name}-subset")

    def sample(self, n: int, seed: int = 0, name: str | None = None) -> "Dataset":
        """Deterministic random sample of ``n`` records."""
        from repro.utils.rand import rng_from_seed

        if n > len(self._records):
            raise DatasetError(
                f"cannot sample {n} records from {len(self._records)}"
            )
        rng = rng_from_seed(seed, "dataset-sample", self.name, n)
        chosen = rng.sample(list(self._records), n)
        return Dataset(chosen, name=name or f"{self.name}-sample{n}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset(name={self.name!r}, records={len(self)}, "
            f"entities={len(self.clusters)})"
        )


class LinkedCorpus:
    """Two disjoint datasets posed as a clean-clean linkage problem.

    Clean-clean ER is the dedup pair space limited to cross pairs
    (DESIGN.md, "Record linkage as a view of the union corpus"). The
    corpus is its source-first :attr:`union` plus the boundary
    ``|S| = len(source)``: union positions below |S| are source
    records, the rest target records, so a cross pair is the union
    codec's plain pair key ``(lo << 32) | hi`` with ``lo < |S| <= hi``.
    The comparison space is |S|×|T| and the ground truth is the
    union's, limited to that band. Record ids must be disjoint across
    the two sides so the union stays a valid :class:`Dataset`.

    Parameters
    ----------
    source, target:
        The two sides; the ``source`` probes an index built over the
        ``target`` (the production resolver shape).
    name:
        Optional name used in reports (defaults to ``source~target``).
    """

    def __init__(
        self, source: Dataset, target: Dataset, name: str | None = None
    ) -> None:
        overlap = sorted(
            set(source.record_ids) & set(target.record_ids)
        )
        if overlap:
            shown = ", ".join(repr(rid) for rid in overlap[:5])
            more = f" (+{len(overlap) - 5} more)" if len(overlap) > 5 else ""
            raise DatasetError(
                f"linked corpus sides share record ids: {shown}{more}; "
                "source and target id spaces must be disjoint"
            )
        self.source = source
        self.target = target
        self.name = name or f"{source.name}~{target.name}"

    def __len__(self) -> int:
        return len(self.source) + len(self.target)

    @cached_property
    def union(self) -> Dataset:
        """Both sides as one dedup-shaped corpus, source records first.

        This is what the blockers group, and its id codec is the one
        linkage keys are written in.
        """
        return Dataset(
            tuple(self.source.records) + tuple(self.target.records),
            name=f"{self.name}-union",
        )

    @property
    def total_pairs(self) -> int:
        """``|Ω|`` of the clean-clean space: |S| × |T| cross pairs."""
        return len(self.source) * len(self.target)

    @cached_property
    def true_matches(self) -> set[Pair]:
        """``Ωtp``: (source_id, target_id) pairs sharing an entity."""
        from repro.records.pairs import pairs_from_keys

        return set(pairs_from_keys(self.true_match_keys, self.union.record_ids))

    @cached_property
    def true_match_keys(self) -> np.ndarray:
        """``Ωtp`` as sorted union-codec keys with ``lo < |S| <= hi``.

        The union's truth limited to the cross band: each entity
        cluster of the union expands into its source × target pairs
        only, through the cross-pair kernel the candidates use, so a
        large cluster on one side costs no within-side pairs.
        """
        from repro.records.pairs import enumerate_csr_cross_pairs, unique_pair_keys

        union = self.union
        source_rows = np.arange(len(union)) < len(self.source)
        return unique_pair_keys(
            *enumerate_csr_cross_pairs(*union._cluster_csr, source_rows)
        )

    @property
    def num_true_matches(self) -> int:
        return int(self.true_match_keys.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkedCorpus(name={self.name!r}, source={len(self.source)}, "
            f"target={len(self.target)})"
        )


class RecordStore:
    """A mutable, ordered record collection — the resolver's corpus.

    Where :class:`Dataset` is frozen at construction, a store accepts
    :meth:`add`/:meth:`remove` over its lifetime (the online resolver
    keeps it aligned with its blocking index) and can :meth:`snapshot`
    the current membership into an immutable :class:`Dataset` at any
    point, preserving insertion order. Ids must stay unique across the
    store's whole history-free membership; :meth:`allocate_id` hands
    out fresh ids for late arrivals that come without one.
    """

    def __init__(
        self, records: Iterable[Record] = (), name: str = "store"
    ) -> None:
        self.name = name
        self._by_id: dict[str, Record] = {}
        self._allocated = 0
        self.add_many(records)

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._by_id.values())

    def __contains__(self, record_id: object) -> bool:
        return record_id in self._by_id

    def __getitem__(self, record_id: str) -> Record:
        try:
            return self._by_id[record_id]
        except KeyError:
            raise DatasetError(f"no record with id {record_id!r}") from None

    def add(self, record: Record) -> None:
        """Insert one record; duplicate ids raise :class:`DatasetError`."""
        if record.record_id in self._by_id:
            raise DatasetError(f"duplicate record id {record.record_id!r}")
        self._by_id[record.record_id] = record

    def add_many(self, records: Iterable[Record]) -> None:
        """Insert records in order; the store is unchanged on failure."""
        staged = list(records)
        seen: set[str] = set()
        for record in staged:
            if record.record_id in self._by_id or record.record_id in seen:
                raise DatasetError(
                    f"duplicate record id {record.record_id!r}"
                )
            seen.add(record.record_id)
        for record in staged:
            self._by_id[record.record_id] = record

    def remove(self, record_id: str) -> Record:
        """Drop and return one record; unknown ids raise ``KeyError``."""
        return self._by_id.pop(record_id)

    def allocate_id(self, prefix: str = "r") -> str:
        """A fresh id no current member uses (monotonic per store)."""
        while True:
            self._allocated += 1
            candidate = f"{prefix}{self._allocated}"
            if candidate not in self._by_id:
                return candidate

    def snapshot(self, name: str | None = None) -> Dataset:
        """The current membership frozen as a :class:`Dataset`."""
        return Dataset(self._by_id.values(), name=name or self.name)

    def snapshot_state(self) -> dict:
        """The store as a JSON-serialisable state dict.

        Captures everything :meth:`from_snapshot_state` needs to
        rebuild a behaviourally identical store: records in insertion
        order (order matters — the online indexes rebuild from it and
        their blocks are insertion-order sensitive) and the
        :meth:`allocate_id` counter, so a restored store never re-hands
        an id allocated before the snapshot.
        """
        return {
            "name": self.name,
            "allocated": self._allocated,
            "records": [
                [r.record_id, dict(r.fields), r.entity_id]
                for r in self._by_id.values()
            ],
        }

    @classmethod
    def from_snapshot_state(cls, state: dict) -> "RecordStore":
        """Rebuild a store from :meth:`snapshot_state` output."""
        try:
            records = [
                Record(rid, fields, entity_id=entity)
                for rid, fields, entity in state["records"]
            ]
            store = cls(records, name=state["name"])
            store._allocated = int(state["allocated"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(
                f"malformed record-store snapshot: {exc}"
            ) from exc
        return store
