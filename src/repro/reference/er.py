"""Entity resolution one pair at a time: per-pair matching and the
string-keyed union-find.

The oracles of :meth:`repro.er.SimilarityMatcher.match_pairs` (which
scores every pair in one pass per attribute) and
:func:`repro.er.resolve` (array min-label propagation).
"""

from __future__ import annotations

from typing import Iterable

from repro.er.matching import MatchDecision, SimilarityMatcher
from repro.records.dataset import Dataset
from repro.records.ground_truth import Pair


def match_pairs(
    matcher: SimilarityMatcher, dataset: Dataset, candidate_pairs: Iterable[Pair]
) -> list[MatchDecision]:
    """Classify every candidate pair (sorted), scoring one at a time."""
    return [matcher.classify(dataset, pair) for pair in sorted(candidate_pairs)]


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[str, str] = {}
        self._rank: dict[str, int] = {}

    def add(self, item: str) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def find(self, item: str) -> str:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        if self._rank[root_a] < self._rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        if self._rank[root_a] == self._rank[root_b]:
            self._rank[root_a] += 1

    def components(self) -> list[list[str]]:
        groups: dict[str, list[str]] = {}
        for item in self._parent:
            groups.setdefault(self.find(item), []).append(item)
        return [sorted(members) for members in groups.values()]


def connected_components(
    record_ids: Iterable[str], matched_pairs: Iterable[Pair]
) -> list[list[str]]:
    """Entity clusters: connected components over matched pairs.

    Every record id appears in exactly one cluster; unmatched records
    form singletons. Clusters and members are sorted for determinism.
    Pair ids outside ``record_ids`` join the clusters too.
    """
    uf = _UnionFind()
    for record_id in record_ids:
        uf.add(record_id)
    for a, b in matched_pairs:
        uf.add(a)
        uf.add(b)
        uf.union(a, b)
    return sorted(uf.components())


def resolve(dataset: Dataset, matched_pairs: Iterable[Pair]) -> list[list[str]]:
    """Cluster a dataset's records given matched pairs."""
    return connected_components(dataset.record_ids, matched_pairs)
