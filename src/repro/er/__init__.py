"""Downstream entity resolution: matching and clustering.

The paper performs blocking only, noting that "our blocking results can
be used as input to any ER algorithms for classifying records" (§1) and
describing the standard two-stage process — blocking, then clustering —
in §2. This package supplies that second stage so the library is usable
end to end: a similarity-threshold pairwise matcher over the candidate
pairs a blocker emits, transitive-closure clustering, and cluster-level
evaluation.
"""

from repro.er.matching import MatchDecision, SimilarityMatcher
from repro.er.resolver import CandidateScore, ResolvedEntity, Resolver
from repro.er.clustering import (
    component_labels,
    connected_components_arrays,
    resolve,
)
from repro.er.evaluation import ResolutionMetrics, evaluate_resolution

__all__ = [
    "SimilarityMatcher",
    "MatchDecision",
    "Resolver",
    "ResolvedEntity",
    "CandidateScore",
    "component_labels",
    "connected_components_arrays",
    "resolve",
    "ResolutionMetrics",
    "evaluate_resolution",
]
