"""Candidate pairs by per-block Python loops.

The oracles of :attr:`~repro.core.base.BlockingResult.distinct_pairs`
(the decoded edge list of the result's
:class:`~repro.records.pairs.ArrayBlockingGraph`, which ``pair_keys``
and meta-blocking read too) and of
:attr:`~repro.core.base.BipartiteBlockingResult.cross_pairs`.
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
    source_ids = set(result._require_linked().source.record_ids)
    pairs: set[Pair] = set()
    for block in result.blocks:
        members = set(block)
        src = [rid for rid in members if rid in source_ids]
        tgt = [rid for rid in members if rid not in source_ids]
        for s in src:
            for t in tgt:
                pairs.add((s, t))
    return frozenset(pairs)

