"""The blocking graph: records as nodes, co-occurrence as edges.

:class:`ArrayBlockingGraph` is the candidate-pair engine's form
(DESIGN.md, "Candidate-pair engine"): edges as sorted ``uint64`` pair
keys over the result's local id codec, per-edge co-occurrence
statistics as flat arrays, and a CSR record→block incidence matrix.
Its dict-of-edges oracle is :class:`repro.reference.metablocking.
BlockingGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.base import BlockingResult
from repro.records.pairs import (
    PAIR_SHIFT,
    decode_pair_keys,
    enumerate_csr_pairs,
    sorted_unique_keys,
)


@dataclass(frozen=True)
class ArrayBlockingGraph:
    """Array-backed blocking graph over the result's local id codec.

    Edges are the distinct co-occurring pairs, held as sorted ``uint64``
    keys (``edge_keys``) with their decoded endpoint indices
    (``edge_left`` < ``edge_right``). The scheme-independent
    co-occurrence statistics every weighting scheme consumes are
    precomputed as whole arrays; scheme-specific weights come from
    :func:`repro.metablocking.weights.compute_weights`.
    """

    #: Sorted local vocabulary: index -> record id.
    ids: list[str]
    #: Distinct edges as sorted ``uint64`` pair keys.
    edge_keys: np.ndarray
    #: Decoded endpoints per edge (``edge_left`` < ``edge_right``).
    edge_left: np.ndarray
    edge_right: np.ndarray
    #: |B_i ∩ B_j| per edge (CBS, float64).
    common_blocks: np.ndarray
    #: Σ_{b ∈ B_i ∩ B_j} 1/||b|| per edge (ARCS, float64).
    arcs: np.ndarray
    #: |B_i| per vocabulary index (distinct blocks containing the record).
    blocks_per_record: np.ndarray
    #: Distinct-neighbour count |v_i| per vocabulary index.
    node_degrees: np.ndarray
    #: Deduped block membership entries, block-major (block id / record
    #: index per entry) — the transposed incidence is derived lazily.
    member_block: np.ndarray
    member_record: np.ndarray
    #: Number of blocks and their *original* sizes (duplicates included).
    num_blocks: int
    block_sizes: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return int(self.edge_keys.size)

    @cached_property
    def _record_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.lexsort((self.member_block, self.member_record))
        offsets = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(self.blocks_per_record, out=offsets[1:])
        return offsets, self.member_block[order]

    @property
    def record_block_offsets(self) -> np.ndarray:
        """CSR record -> block incidence offsets (built on demand)."""
        return self._record_incidence[0]

    @property
    def record_block_ids(self) -> np.ndarray:
        """Sorted block ids per record (CSR values of the incidence)."""
        return self._record_incidence[1]


def build_array_graph(result: BlockingResult) -> ArrayBlockingGraph:
    """Scheme-independent co-occurrence statistics as whole arrays.

    One pass builds everything every weighting scheme needs: the block
    membership is deduped per block (``np.unique`` over combined
    block<<32|record labels), pairs are enumerated per block with their
    block ids, and one sort of the pair keys yields the distinct edge
    list, the common-block counts (CBS) and — accumulating the per-block
    reciprocal-comparison contributions per edge — ARCS. ARCS
    contributions are ordered by ascending block index inside each edge
    segment, reproducing the reference sum bit for bit.
    """
    arrays = result.local_arrays
    num_blocks = len(result.blocks)
    block_sizes = np.diff(arrays.offsets)
    num_records = len(arrays.ids)

    if arrays.indices.size:
        block_of = np.repeat(np.arange(num_blocks, dtype=np.int64), block_sizes)
        membership = sorted_unique_keys(
            (block_of.astype(np.uint64) << PAIR_SHIFT)
            | arrays.indices.astype(np.uint64)
        )
        member_block, member_record = decode_pair_keys(membership)
    else:
        member_block = np.empty(0, dtype=np.int64)
        member_record = np.empty(0, dtype=np.int64)

    blocks_per_record = np.bincount(member_record, minlength=num_records)

    # Deduped block -> member CSR, then the per-block pair multiset.
    dedup_offsets = np.zeros(num_blocks + 1, dtype=np.int64)
    np.cumsum(np.bincount(member_block, minlength=num_blocks), out=dedup_offsets[1:])
    left, right, pair_blocks = enumerate_csr_pairs(
        dedup_offsets, member_record, with_group_ids=True
    )

    if left.size:
        keys = (
            np.minimum(left, right).astype(np.uint64) << PAIR_SHIFT
        ) | np.maximum(left, right).astype(np.uint64)
        order = np.lexsort((pair_blocks, keys))
        keys = keys[order]
        pair_blocks = pair_blocks[order]
        # keys are sorted — derive the distinct edges, counts and
        # inverse from the run boundaries instead of a second sort.
        boundary = np.empty(keys.size, dtype=bool)
        boundary[0] = True
        np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
        edge_keys = keys[boundary]
        inverse = np.cumsum(boundary) - 1
        counts = np.diff(np.append(np.flatnonzero(boundary), keys.size))
        comparisons = block_sizes * (block_sizes - 1) / 2.0
        contributions = np.zeros(num_blocks, dtype=np.float64)
        np.divide(1.0, comparisons, out=contributions, where=comparisons > 0)
        # np.add.at accumulates strictly in element order (ascending
        # block index within each edge here), reproducing the reference
        # sequential sum bit for bit — reduceat's pairwise summation
        # rounds differently.
        arcs = np.zeros(edge_keys.size, dtype=np.float64)
        np.add.at(arcs, inverse, contributions[pair_blocks])
    else:
        edge_keys = np.empty(0, dtype=np.uint64)
        counts = np.empty(0, dtype=np.int64)
        arcs = np.empty(0, dtype=np.float64)

    edge_left, edge_right = decode_pair_keys(edge_keys)
    node_degrees = np.bincount(
        np.concatenate([edge_left, edge_right]), minlength=num_records
    )

    return ArrayBlockingGraph(
        ids=arrays.ids,
        edge_keys=edge_keys,
        edge_left=edge_left,
        edge_right=edge_right,
        common_blocks=counts.astype(np.float64),
        arcs=arcs,
        blocks_per_record=blocks_per_record,
        node_degrees=node_degrees,
        member_block=member_block,
        member_record=member_record,
        num_blocks=num_blocks,
        block_sizes=block_sizes,
    )
