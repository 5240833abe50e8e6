"""PC/PQ/RR/FM over Python pair sets.

The oracles of :func:`repro.evaluation.metrics.evaluate_blocks` and
:func:`~repro.evaluation.metrics.evaluate_linkage`: every block id is
checked against the corpus, Γ is a set of id tuples, and the true
positives are a set intersection with the ground truth.
"""

from __future__ import annotations

from repro.core.base import BipartiteBlockingResult, BlockingResult
from repro.errors import EvaluationError
from repro.evaluation.metrics import (
    BlockingMetrics,
    LinkageMetrics,
    _as_linkage,
    _metrics_from_counts,
)
from repro.records.dataset import Dataset, LinkedCorpus
from repro.reference.pairs import cross_pairs


def evaluate_blocks(result: BlockingResult, dataset: Dataset) -> BlockingMetrics:
    """Score a blocking result against the dataset's ground truth."""
    for block in result.blocks:
        for record_id in block:
            if record_id not in dataset:
                raise EvaluationError(
                    f"block references unknown record {record_id!r}"
                )
    candidate_pairs = result.distinct_pairs
    true_matches = dataset.true_matches
    return _metrics_from_counts(
        BlockingMetrics,
        result,
        total_pairs=dataset.total_pairs,
        num_multiset=result.num_multiset_comparisons,
        true_positives=len(candidate_pairs & true_matches),
        total_true=len(true_matches),
        num_distinct=len(candidate_pairs),
    )


def evaluate_linkage(
    result: BipartiteBlockingResult, linked: LinkedCorpus | None = None
) -> LinkageMetrics:
    """Score a linkage result against a bipartite ground truth."""
    result, linked = _as_linkage(result, linked)
    union = linked.union
    for block in result.blocks:
        for record_id in block:
            if record_id not in union:
                raise EvaluationError(
                    f"block references unknown record {record_id!r}"
                )
    candidate_pairs = cross_pairs(result)
    true_matches = linked.true_matches
    return _metrics_from_counts(
        LinkageMetrics,
        result,
        total_pairs=linked.total_pairs,
        num_multiset=result.num_cross_multiset_comparisons,
        true_positives=len(candidate_pairs & true_matches),
        total_true=len(true_matches),
        num_distinct=len(candidate_pairs),
    )
