"""The block collection: one CSR list of record-id blocks.

A blocker's output is a collection of possibly overlapping blocks, each
a list of entity indices (the block-collection form of the blocking
survey, Papadakis et al.). :class:`BlockList` stores it as CSR arrays
over an id vocabulary — block ``b`` holds
``ids[indices[offsets[b]:offsets[b + 1]]]`` — and reads as the tuple of
id tuples it stands for, building those tuples only when someone
iterates or indexes it (DESIGN.md, "Bulk bucket construction").
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

Block = tuple[str, ...]


class BlockList(Sequence[Block]):
    """A read-only sequence of id tuples, held as CSR arrays.

    ``ids`` is an object array of record ids, ``offsets`` the int64
    block bounds and ``indices`` int64 positions into ``ids``
    (duplicates preserved). The vocabulary is whatever the producer
    holds: the banded index hands over its insertion-order id array,
    removed records included, so ids need not be sorted and some may
    appear in no block — consumers map :meth:`present_rows` only.

    As a sequence it is the tuple of block tuples: ``len()`` reads the
    offsets, iteration and indexing build the tuples once and cache
    them, and it compares and hashes equal to that tuple. Producers
    that already hold tuples (the survey baselines, MP-LSH, LSH-Forest,
    pair files, meta-blocking's output) wrap them with
    :meth:`from_tuples`; their ids are interned into the CSR once, on
    the first array access, so a timed ``block()`` does not pay for it.
    """

    __slots__ = ("_ids", "_offsets", "_indices", "_tuples")

    def __init__(
        self, ids: np.ndarray, offsets: np.ndarray, indices: np.ndarray
    ) -> None:
        self._ids = ids
        self._offsets = offsets
        self._indices = indices
        self._tuples: tuple[Block, ...] | None = None

    @classmethod
    def from_tuples(cls, blocks: Iterable[Sequence[str]]) -> "BlockList":
        """Wrap blocks held as id sequences; the CSR is built lazily."""
        self = cls.__new__(cls)
        self._ids = self._offsets = self._indices = None
        self._tuples = tuple(tuple(block) for block in blocks)
        return self

    @classmethod
    def of(cls, blocks: "BlockList | Iterable[Sequence[str]]") -> "BlockList":
        """``blocks`` itself when it already is a block list, else wrapped."""
        return blocks if isinstance(blocks, cls) else cls.from_tuples(blocks)

    def _intern(self) -> None:
        row_of: dict[str, int] = {}
        blocks = self._tuples
        self._indices = np.fromiter(
            (row_of.setdefault(rid, len(row_of)) for block in blocks for rid in block),
            dtype=np.int64,
        )
        self._offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, blocks), dtype=np.int64, count=len(blocks)),
            out=self._offsets[1:],
        )
        self._ids = np.empty(len(row_of), dtype=object)
        self._ids[:] = list(row_of)

    @property
    def ids(self) -> np.ndarray:
        """The id vocabulary the indices point into (object array)."""
        if self._ids is None:
            self._intern()
        return self._ids

    @property
    def offsets(self) -> np.ndarray:
        """int64 CSR bounds: block ``b`` is ``indices[offsets[b]:offsets[b + 1]]``."""
        if self._offsets is None:
            self._intern()
        return self._offsets

    @property
    def indices(self) -> np.ndarray:
        """int64 vocabulary positions of every membership, block-major."""
        if self._indices is None:
            self._intern()
        return self._indices

    def sizes(self) -> np.ndarray:
        """Members per block (duplicates counted)."""
        return np.diff(self.offsets)

    def present_rows(self) -> np.ndarray:
        """Ascending vocabulary positions some block references."""
        return np.flatnonzero(np.bincount(self.indices, minlength=len(self.ids)))

    def _materialise(self) -> tuple[Block, ...]:
        members = self._ids[self._indices].tolist()
        bounds = self._offsets.tolist()
        return tuple(tuple(members[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    def _as_tuples(self) -> tuple[Block, ...]:
        if self._tuples is None:
            self._tuples = self._materialise()
        return self._tuples

    def __len__(self) -> int:
        if self._tuples is not None:
            return len(self._tuples)
        return self._offsets.size - 1

    def __getitem__(self, index):
        return self._as_tuples()[index]

    def __iter__(self) -> Iterator[Block]:
        return iter(self._as_tuples())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BlockList):
            return self is other or self._as_tuples() == other._as_tuples()
        if isinstance(other, (tuple, list)):
            return self._as_tuples() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._as_tuples())

    def __repr__(self) -> str:
        return f"BlockList({self._as_tuples()!r})"

    def __reduce__(self):
        return BlockList, (self.ids, self.offsets, self.indices)
