"""PC/PQ/RR/FM over Python pair sets.

The oracles of :func:`repro.evaluation.metrics.evaluate_blocks` and
:func:`~repro.evaluation.metrics.evaluate_linkage`: every block id is
checked against the corpus, Γ is a set of id tuples, |Γm| is counted
block by block, the bipartite truth is derived from the entity labels
of both sides, and the true positives are a set intersection with the
ground truth.
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
from repro.records.ground_truth import Pair
from repro.reference.pairs import cross_pairs


def _check_known(result: BlockingResult, known) -> None:
    for block in result.blocks:
        for record_id in block:
            if record_id not in known:
                raise EvaluationError(
                    f"block references unknown record {record_id!r}"
                )


def evaluate_blocks(result: BlockingResult, dataset: Dataset) -> BlockingMetrics:
    """Score a blocking result against the dataset's ground truth."""
    _check_known(result, dataset)
    candidate_pairs = result.distinct_pairs
    true_matches = dataset.true_matches
    return _metrics_from_counts(
        BlockingMetrics,
        result,
        total_pairs=dataset.total_pairs,
        num_multiset=sum(len(b) * (len(b) - 1) // 2 for b in result.blocks),
        true_positives=len(candidate_pairs & true_matches),
        total_true=len(true_matches),
        num_distinct=len(candidate_pairs),
    )


def bipartite_truth(linked: LinkedCorpus) -> set[Pair]:
    """``(source_id, target_id)`` pairs whose records share an entity."""
    targets_of: dict[str, list[str]] = {}
    for record in linked.target:
        if record.entity_id is not None:
            targets_of.setdefault(record.entity_id, []).append(record.record_id)
    return {
        (record.record_id, target_id)
        for record in linked.source
        if record.entity_id is not None
        for target_id in targets_of.get(record.entity_id, ())
    }


def evaluate_linkage(
    result: BipartiteBlockingResult, linked: LinkedCorpus | None = None
) -> LinkageMetrics:
    """Score a linkage result against a bipartite ground truth."""
    result, linked = _as_linkage(result, linked)
    sources = set(linked.source.record_ids)
    _check_known(result, sources | set(linked.target.record_ids))
    candidate_pairs = cross_pairs(result)
    true_matches = bipartite_truth(linked)
    num_multiset = 0
    for block in result.blocks:
        n_source = sum(1 for record_id in block if record_id in sources)
        num_multiset += n_source * (len(block) - n_source)
    return _metrics_from_counts(
        LinkageMetrics,
        result,
        total_pairs=linked.total_pairs,
        num_multiset=num_multiset,
        true_positives=len(candidate_pairs & true_matches),
        total_true=len(true_matches),
        num_distinct=len(candidate_pairs),
    )
