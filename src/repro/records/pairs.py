"""Integer pair keys and vectorized pair enumeration.

The candidate-pair engine (DESIGN.md, "Candidate-pair engine") stores an
unordered record pair as one ``uint64`` key over contiguous record
indices::

    key = (min(i, j) << 32) | max(i, j)

Keys are injective for any corpus below 2^32 records, totally ordered,
and intersect/dedup with plain ``np.unique`` / ``np.intersect1d``. When
the index codec enumerates ids in lexicographic order (the *local*
vocabulary of :class:`ArrayBlockingGraph`), numeric key order equals
the lexicographic order of the decoded ``(id1, id2)`` tuples, so sorted
key arrays decode directly into the canonical
:func:`~repro.records.ground_truth.sorted_pair` form.

:class:`ArrayBlockingGraph` is the one enumeration of a block list's
distinct pairs Γ: evaluation translates its edge keys into a dataset
codec, and meta-blocking weights and prunes the same edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.records.blocks import BlockList
from repro.records.ground_truth import Pair

#: Bits reserved for each index half of a pair key (max 2**32 records).
PAIR_SHIFT = np.uint64(32)
_LOW_MASK = np.uint64(0xFFFFFFFF)


def encode_pair_keys(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``uint64`` keys of unordered index pairs (canonical min/max form)."""
    lo = np.minimum(left, right).astype(np.uint64, copy=False)
    hi = np.maximum(left, right).astype(np.uint64, copy=False)
    return (lo << PAIR_SHIFT) | hi


def decode_pair_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` index arrays of encoded pair keys."""
    keys = np.asarray(keys, dtype=np.uint64)
    lo = (keys >> PAIR_SHIFT).astype(np.int64)
    hi = (keys & _LOW_MASK).astype(np.int64)
    return lo, hi


def pairs_from_keys(keys: np.ndarray, ids: Sequence[str]) -> list[Pair]:
    """Decode keys against an id vocabulary, preserving key order.

    The decoded tuples are ``(ids[lo], ids[hi])``; with a
    lexicographically sorted vocabulary that is already the canonical
    ``sorted_pair`` orientation. Callers decoding against a
    dataset-ordered codec must canonicalise the tuples themselves.
    """
    lo, hi = decode_pair_keys(keys)
    return [(ids[a], ids[b]) for a, b in zip(lo.tolist(), hi.tolist())]


def enumerate_csr_pairs(
    offsets: np.ndarray,
    indices: np.ndarray,
    *,
    with_group_ids: bool = False,
):
    """All within-group index pairs of a CSR block layout.

    Returns ``(left, right)`` arrays — plus the group id of each emitted
    pair when ``with_group_ids`` — covering every unordered pair of
    positions inside each group (the multiset Γm of the paper's §6,
    minus self-pairs, which arise only when a group repeats an index).

    Groups are expanded one *size class* at a time: all groups of equal
    size form one ``(m, size)`` matrix whose upper-triangle columns are
    gathered in bulk, so the expansion is pure numpy with one Python
    iteration per distinct group size. Emission order is therefore
    grouped by size class, not by group id — callers needing per-key
    group order must sort (see :attr:`ArrayBlockingGraph.arcs`).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    lefts: list[np.ndarray] = []
    rights: list[np.ndarray] = []
    groups: list[np.ndarray] = []
    for size in np.unique(sizes).tolist():
        if size < 2:
            continue
        members = np.flatnonzero(sizes == size)
        starts = offsets[members]
        matrix = indices[starts[:, None] + np.arange(size)]
        upper_i, upper_j = np.triu_indices(size, k=1)
        lefts.append(matrix[:, upper_i].ravel())
        rights.append(matrix[:, upper_j].ravel())
        if with_group_ids:
            groups.append(np.repeat(members, upper_i.size))
    if not lefts:
        empty = np.empty(0, dtype=np.int64)
        if with_group_ids:
            return empty, empty.copy(), empty.copy()
        return empty, empty.copy()
    left = np.concatenate(lefts)
    right = np.concatenate(rights)
    group_ids = np.concatenate(groups) if with_group_ids else None
    keep = left != right
    if not keep.all():
        left, right = left[keep], right[keep]
        if group_ids is not None:
            group_ids = group_ids[keep]
    if group_ids is not None:
        return left, right, group_ids
    return left, right


def csr_source_counts(
    offsets: np.ndarray, indices: np.ndarray, source_mask: np.ndarray
) -> np.ndarray:
    """Source members per group of a CSR block layout.

    ``source_mask[i]`` says whether index ``i`` is a source record; a
    group of size ``s`` with ``n`` source members holds ``n * (s - n)``
    cross pairs, duplicates counted.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    num_groups = offsets.size - 1
    group_of = np.repeat(np.arange(num_groups), np.diff(offsets))
    is_source = np.asarray(source_mask, dtype=bool)[indices]
    return np.bincount(group_of[is_source], minlength=num_groups)


def enumerate_csr_cross_pairs(
    offsets: np.ndarray,
    indices: np.ndarray,
    source_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """All cross-side index pairs of a CSR block layout.

    ``source_mask[i]`` says whether local index ``i`` belongs to the
    source side; the returned ``(source, target)`` arrays cover every
    (source member × target member) pair inside each group and *never*
    a within-side pair — the clean-clean candidate set Γ over |S|×|T|.

    Like :func:`enumerate_csr_pairs` the expansion is one numpy
    cartesian product per distinct ``(n_source, n_target)`` shape class,
    with the group members partitioned sources-first by a stable sort so
    gathered rows stay aligned.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    indices = np.asarray(indices)
    source_mask = np.asarray(source_mask, dtype=bool)
    num_groups = offsets.size - 1
    if num_groups <= 0 or indices.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    sizes = np.diff(offsets)
    group_of = np.repeat(np.arange(num_groups), sizes)
    is_source = source_mask[indices]
    # Stable partition: within each group, source members first. The
    # secondary key is position, so dataset order survives inside each
    # side (emission order is deterministic either way — the pair *set*
    # is what callers consume).
    order = np.lexsort((~is_source, group_of))
    part_indices = indices[order]
    n_src = csr_source_counts(offsets, indices, source_mask)
    n_tgt = sizes - n_src
    shapes = n_src * (np.int64(indices.size) + 1) + n_tgt
    sources: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for shape in np.unique(shapes).tolist():
        members = np.flatnonzero(shapes == shape)
        s = int(n_src[members[0]])
        t = int(n_tgt[members[0]])
        if s == 0 or t == 0:
            continue
        starts = offsets[members]
        src_rows = part_indices[starts[:, None] + np.arange(s)]
        tgt_rows = part_indices[starts[:, None] + s + np.arange(t)]
        sources.append(
            np.broadcast_to(src_rows[:, :, None], (members.size, s, t)).ravel()
        )
        targets.append(
            np.broadcast_to(tgt_rows[:, None, :], (members.size, s, t)).ravel()
        )
    if not sources:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return (
        np.concatenate(sources).astype(np.int64, copy=False),
        np.concatenate(targets).astype(np.int64, copy=False),
    )


def sorted_unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct copy of a key array via sort + run mask.

    Equivalent to ``np.unique(keys)`` but routed through one sort:
    numpy >= 2.x sends plain integer ``unique`` calls through a hash
    table that is far slower than sorting at candidate-pair sizes
    (~25x on half-million-key arrays).
    """
    ordered = np.sort(keys.astype(np.uint64, copy=False))
    return ordered[_run_starts(ordered)]


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Positions where each run of equal values of a sorted array starts."""
    starts = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def unique_pair_keys(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Sorted distinct keys of the given index pairs (Γ from Γm)."""
    return sorted_unique_keys(encode_pair_keys(left, right))


@dataclass(frozen=True)
class ArrayBlockingGraph:
    """The blocking graph of a block list: Γ as one sorted edge list.

    Nodes are the ids some block references, ranked lexicographically
    (``ids``); edges are the distinct co-occurring pairs, held as
    sorted ``uint64`` keys over those ranks (``edge_keys``). Built
    once per :class:`~repro.core.base.BlockingResult` (its ``graph``):
    ``pair_keys`` translates the edge keys into a dataset codec,
    ``distinct_pairs`` decodes them, and meta-blocking weights and
    prunes them. The statistics every weighting scheme reads (CBS,
    blocks per record) come with the build; the others are derived on
    first read. Its dict-of-edges oracle is
    :class:`repro.reference.metablocking.BlockingGraph`.
    """

    #: Sorted local vocabulary: index -> record id.
    ids: list[str]
    #: Block -> member CSR over ``ids``, deduplicated and ascending per
    #: block.
    member_offsets: np.ndarray
    members: np.ndarray
    #: Original block sizes (duplicates included).
    block_sizes: np.ndarray
    #: Distinct edges as sorted ``uint64`` pair keys.
    edge_keys: np.ndarray
    #: |B_i ∩ B_j| per edge (CBS, float64).
    common_blocks: np.ndarray
    #: |B_i| per vocabulary index (distinct blocks containing the record).
    blocks_per_record: np.ndarray

    @classmethod
    def from_blocks(cls, blocks: BlockList) -> "ArrayBlockingGraph":
        """One pass over the block list's CSR arrays.

        Ranks the present ids, dedupes each block's membership with one
        sort of combined ``block << 32 | rank`` labels, enumerates the
        per-block pairs once and sorts their keys once: the runs of
        equal keys are the edges, their lengths CBS.
        """
        present = blocks.present_rows()
        ids, rank = np.unique(blocks.ids[present], return_inverse=True)
        remap = np.zeros(len(blocks.ids), dtype=np.uint64)
        remap[present] = rank.reshape(-1)
        block_sizes = np.diff(blocks.offsets)
        num_blocks = block_sizes.size
        block_labels = np.arange(num_blocks + 1, dtype=np.uint64) << PAIR_SHIFT
        membership = sorted_unique_keys(
            np.repeat(block_labels[:-1], block_sizes) | remap[blocks.indices]
        )
        member_offsets = np.searchsorted(membership, block_labels)
        members = (membership & _LOW_MASK).astype(np.int32)
        # Members ascend within each block, so left < right already.
        left, right = enumerate_csr_pairs(member_offsets, members)
        keys = _edge_keys(left, right)
        keys.sort()
        starts = _run_starts(keys)
        return cls(
            ids=ids.tolist(),
            member_offsets=member_offsets,
            members=members,
            block_sizes=block_sizes,
            edge_keys=keys[starts],
            common_blocks=np.diff(np.append(starts, keys.size)).astype(np.float64),
            blocks_per_record=np.bincount(members, minlength=len(ids)),
        )

    @property
    def num_nodes(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return int(self.edge_keys.size)

    @property
    def num_blocks(self) -> int:
        return int(self.block_sizes.size)

    @cached_property
    def edge_left(self) -> np.ndarray:
        """Lower endpoint index per edge."""
        return (self.edge_keys >> PAIR_SHIFT).astype(np.int64)

    @cached_property
    def edge_right(self) -> np.ndarray:
        """Higher endpoint index per edge."""
        return (self.edge_keys & _LOW_MASK).astype(np.int64)

    @cached_property
    def node_degrees(self) -> np.ndarray:
        """Distinct-neighbour count |v_i| per vocabulary index."""
        ends = np.concatenate([self.edge_left, self.edge_right])
        return np.bincount(ends, minlength=self.num_nodes)

    @cached_property
    def arcs(self) -> np.ndarray:
        """Σ_{b ∈ B_i ∩ B_j} 1/||b|| per edge (ARCS, float64).

        The only reader of per-pair block ids, so the pairs are
        enumerated again, with their blocks, on first read. One lexsort
        by (key, block) orders each edge's contributions by ascending
        block, and ``np.add.at`` adds strictly in element order,
        reproducing the reference's sequential sum bit for bit —
        ``reduceat``'s pairwise summation rounds differently.
        """
        left, right, pair_blocks = enumerate_csr_pairs(
            self.member_offsets, self.members, with_group_ids=True
        )
        keys = _edge_keys(left, right)
        order = np.lexsort((pair_blocks, keys))
        comparisons = self.block_sizes * (self.block_sizes - 1) / 2.0
        contributions = np.zeros(self.num_blocks, dtype=np.float64)
        np.divide(1.0, comparisons, out=contributions, where=comparisons > 0)
        arcs = np.zeros(self.num_edges, dtype=np.float64)
        np.add.at(
            arcs,
            np.searchsorted(self.edge_keys, keys[order]),
            contributions[pair_blocks[order]],
        )
        return arcs


def _edge_keys(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Keys of index pairs already in ``left < right`` orientation."""
    return (left.astype(np.uint64) << PAIR_SHIFT) | right.astype(np.uint64)
