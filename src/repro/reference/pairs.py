"""Candidate pairs and block assignments by per-block Python loops.

The oracles of :attr:`~repro.core.base.BlockingResult.distinct_pairs`,
:attr:`~repro.core.base.BipartiteBlockingResult.cross_pairs` and the
record → block incidence of
:class:`~repro.metablocking.graph.ArrayBlockingGraph`.
"""

from __future__ import annotations

from repro.core.base import BipartiteBlockingResult, BlockingResult
from repro.records.ground_truth import Pair, sorted_pair


def distinct_pairs(result: BlockingResult) -> frozenset[Pair]:
    """Γ — distinct canonical pairs over every block."""
    pairs: set[Pair] = set()
    for block in result.blocks:
        for i, first in enumerate(block):
            for second in block[i + 1 :]:
                if first != second:
                    pairs.add(sorted_pair(first, second))
    return frozenset(pairs)


def cross_pairs(result: BipartiteBlockingResult) -> frozenset[Pair]:
    """Γ of a linkage result: ``(source_id, target_id)`` per block."""
    source_ids = result._require_linked().source_id_set
    pairs: set[Pair] = set()
    for block in result.blocks:
        members = set(block)
        src = [rid for rid in members if rid in source_ids]
        tgt = [rid for rid in members if rid not in source_ids]
        for s in src:
            for t in tgt:
                pairs.add((s, t))
    return frozenset(pairs)


def record_block_ids(result: BlockingResult) -> dict[str, list[int]]:
    """Record id -> indices of the blocks containing it."""
    assignment: dict[str, list[int]] = {}
    for index, block in enumerate(result.blocks):
        for record_id in set(block):
            assignment.setdefault(record_id, []).append(index)
    return assignment
