"""The four blocking measures PC, PQ, RR, FM plus PQ*, FM* (paper §6).

Definitions (with Γ the distinct candidate pairs, Γm the per-block
multiset of pairs, Ω all dataset pairs, and ``tp`` marking true
matches):

* PC  = |Γtp| / |Ωtp|   — pair completeness (recall of true matches)
* PQ  = |Γtp| / |Γ|     — pair quality over *distinct* pairs
* RR  = 1 - |Γ| / |Ω|   — reduction ratio
* FM  = harmonic mean of PC and PQ
* PQ* = |Γtp| / |Γm|    — the meta-blocking paper's PQ (redundant pairs)
* FM* = harmonic mean of PC and PQ*
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import BipartiteBlockingResult, BlockingResult, as_bipartite
from repro.errors import DatasetError, EvaluationError
from repro.records.dataset import Dataset, LinkedCorpus


def _harmonic(a: float, b: float) -> float:
    return 2.0 * a * b / (a + b) if (a + b) > 0.0 else 0.0


@dataclass(frozen=True)
class BlockingMetrics:
    """Quality measures of one blocking result."""

    pc: float
    pq: float
    rr: float
    fm: float
    pq_star: float
    fm_star: float
    num_blocks: int
    num_distinct_pairs: int
    num_multiset_pairs: int
    num_true_positives: int
    max_block_size: int

    def row(self) -> list[float]:
        """The headline measures in report order (PC, PQ, RR, FM)."""
        return [self.pc, self.pq, self.rr, self.fm]

    def __str__(self) -> str:
        return (
            f"PC={self.pc:.4f} PQ={self.pq:.4f} RR={self.rr:.4f} "
            f"FM={self.fm:.4f} (blocks={self.num_blocks}, "
            f"pairs={self.num_distinct_pairs})"
        )


def evaluate_blocks(result: BlockingResult, dataset: Dataset) -> BlockingMetrics:
    """Score a blocking result against the dataset's ground truth.

    Intersects the result's encoded ``uint64`` pair keys with the
    dataset's cached ``true_match_keys`` (no Python pair sets). No
    membership pre-check: unknown block ids surface as encode errors
    from the dataset codec.
    """
    try:
        candidate_keys = result.pair_keys(dataset)
    except DatasetError as exc:
        raise EvaluationError(f"block references unknown record: {exc}") from None
    truth_keys = dataset.true_match_keys
    return _metrics_from_counts(
        BlockingMetrics,
        result,
        total_pairs=dataset.total_pairs,
        num_multiset=result.num_multiset_comparisons,
        true_positives=count_common_keys(candidate_keys, truth_keys),
        total_true=int(truth_keys.size),
        num_distinct=int(candidate_keys.size),
    )


def count_common_keys(sorted_keys: np.ndarray, probe_keys: np.ndarray) -> int:
    """|A ∩ B| for two sorted unique key arrays, probing the smaller.

    ``np.searchsorted`` membership is O(|B| log |A|) — unlike
    ``np.intersect1d``, which re-sorts the concatenation of both sides.
    """
    if not sorted_keys.size or not probe_keys.size:
        return 0
    if probe_keys.size > sorted_keys.size:
        sorted_keys, probe_keys = probe_keys, sorted_keys
    positions = np.searchsorted(sorted_keys, probe_keys)
    positions = np.minimum(positions, sorted_keys.size - 1)
    return int((sorted_keys[positions] == probe_keys).sum())


@dataclass(frozen=True)
class LinkageMetrics:
    """Clean-clean measures of one bipartite blocking result.

    Same definitions as :class:`BlockingMetrics` with the clean-clean
    pair spaces: Γ is the cross-side candidate set, Ω is the |S|×|T|
    cross product, and Ωtp is the bipartite ground truth (entities
    labelled on both sides).
    """

    pc: float
    pq: float
    rr: float
    fm: float
    pq_star: float
    fm_star: float
    num_blocks: int
    num_distinct_pairs: int
    num_multiset_pairs: int
    num_true_positives: int
    max_block_size: int

    def row(self) -> list[float]:
        """The headline measures in report order (PC, PQ, RR, FM)."""
        return [self.pc, self.pq, self.rr, self.fm]

    def __str__(self) -> str:
        return (
            f"PC={self.pc:.4f} PQ={self.pq:.4f} RR={self.rr:.4f} "
            f"FM={self.fm:.4f} (blocks={self.num_blocks}, "
            f"cross pairs={self.num_distinct_pairs})"
        )


def evaluate_linkage(
    result: BipartiteBlockingResult, linked: LinkedCorpus | None = None
) -> LinkageMetrics:
    """Score a linkage result against a bipartite ground truth.

    ``linked`` defaults to the result's attached corpus. Intersects the
    result's bipartite ``uint64`` cross-pair keys with
    ``linked.true_match_keys``. Within-side pairs never enter the
    computation — the candidate set is the cross-side enumeration by
    construction.
    """
    result, linked = _as_linkage(result, linked)
    try:
        candidate_keys = result.cross_pair_keys
    except DatasetError as exc:
        raise EvaluationError(f"block references unknown record: {exc}") from None
    truth_keys = linked.true_match_keys
    return _metrics_from_counts(
        LinkageMetrics,
        result,
        total_pairs=linked.total_pairs,
        num_multiset=result.num_cross_multiset_comparisons,
        true_positives=count_common_keys(candidate_keys, truth_keys),
        total_true=int(truth_keys.size),
        num_distinct=int(candidate_keys.size),
    )


def _as_linkage(
    result: BlockingResult, linked: LinkedCorpus | None
) -> tuple[BipartiteBlockingResult, LinkedCorpus]:
    """The result typed as bipartite over ``linked`` (default: its own)."""
    if linked is None:
        if not isinstance(result, BipartiteBlockingResult):
            raise EvaluationError(
                "evaluate_linkage needs a BipartiteBlockingResult or an "
                "explicit LinkedCorpus"
            )
        linked = result._require_linked()
    if not isinstance(result, BipartiteBlockingResult) or result.linked is not linked:
        result = as_bipartite(result, linked)
    return result, linked


def _metrics_from_counts(
    metrics_type,
    result: BlockingResult,
    *,
    total_pairs: int,
    num_multiset: int,
    true_positives: int,
    total_true: int,
    num_distinct: int,
):
    """The measures of either kind from the counts they are defined by."""
    pc = true_positives / total_true if total_true else 0.0
    pq = true_positives / num_distinct if num_distinct else 0.0
    pq_star = true_positives / num_multiset if num_multiset else 0.0
    rr = 1.0 - num_distinct / total_pairs if total_pairs else 0.0
    return metrics_type(
        pc=pc,
        pq=pq,
        rr=rr,
        fm=_harmonic(pc, pq),
        pq_star=pq_star,
        fm_star=_harmonic(pc, pq_star),
        num_blocks=result.num_blocks,
        num_distinct_pairs=num_distinct,
        num_multiset_pairs=num_multiset,
        num_true_positives=true_positives,
        max_block_size=result.max_block_size,
    )
