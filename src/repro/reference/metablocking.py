"""Meta-blocking over a dict-of-edges graph, one edge at a time.

The oracle of :func:`repro.metablocking.run_metablocking`: the
blocking graph is a ``{pair: weight}`` dict built from per-record
block sets, each edge is weighted by :func:`edge_weight`, and pruning
walks the dict with heaps. The array engine's weights are bitwise equal
to these and its surviving pairs identical.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Sequence

from repro.core.base import BlockingResult
from repro.errors import ConfigurationError
from repro.metablocking.pruning import PRUNING_ALGORITHMS
from repro.metablocking.weights import WEIGHT_SCHEMES
from repro.records.ground_truth import Pair, sorted_pair


@dataclass(frozen=True)
class BlockingGraph:
    """Weighted blocking graph derived from a block collection.

    Attributes
    ----------
    edges:
        Pair -> weight.
    block_ids_of:
        Record id -> set of block indices containing it.
    num_blocks:
        Number of blocks in the source collection.
    block_sizes:
        Size of each source block (for ARCS).
    """

    edges: dict[Pair, float]
    block_ids_of: dict[str, frozenset[int]]
    num_blocks: int
    block_sizes: tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.block_ids_of)

    @cached_property
    def degrees(self) -> dict[str, int]:
        """Incident-edge count per node, derived once from the edges."""
        counts: dict[str, int] = dict.fromkeys(self.block_ids_of, 0)
        for a, b in self.edges:
            counts[a] = counts.get(a, 0) + 1
            counts[b] = counts.get(b, 0) + 1
        return counts

    def degree(self, record_id: str) -> int:
        """Number of graph edges incident to the record."""
        return self.degrees.get(record_id, 0)

    def adjacency(self) -> dict[str, list[tuple[str, float]]]:
        """Node -> [(neighbour, weight)] (built on demand)."""
        adj: dict[str, list[tuple[str, float]]] = {}
        for (a, b), weight in self.edges.items():
            adj.setdefault(a, []).append((b, weight))
            adj.setdefault(b, []).append((a, weight))
        return adj


def edge_weight(
    scheme: str,
    *,
    blocks_a: AbstractSet[int],
    blocks_b: AbstractSet[int],
    num_blocks: int,
    block_sizes: Sequence[int],
    degree_a: int,
    degree_b: int,
    total_edges: int,
) -> float:
    """Weight of the edge between two records under one scheme."""
    common = blocks_a & blocks_b
    cbs = float(len(common))

    if scheme == "CBS":
        return cbs
    if scheme == "ECBS":
        if not blocks_a or not blocks_b:
            return 0.0
        return (
            cbs
            * math.log(num_blocks / len(blocks_a))
            * math.log(num_blocks / len(blocks_b))
        )
    if scheme == "JS":
        union = len(blocks_a) + len(blocks_b) - len(common)
        return cbs / union if union else 0.0
    if scheme == "EJS":
        union = len(blocks_a) + len(blocks_b) - len(common)
        js = cbs / union if union else 0.0
        if degree_a == 0 or degree_b == 0 or total_edges == 0:
            return 0.0
        # Guard log of values < 1 when a node touches every edge.
        factor_a = math.log(max(total_edges / degree_a, 1.0))
        factor_b = math.log(max(total_edges / degree_b, 1.0))
        return js * factor_a * factor_b
    if scheme == "ARCS":
        # Ascending block order, matching the array engine's
        # accumulation, so both paths sum in the same float order.
        weight = 0.0
        for block_index in sorted(common):
            size = block_sizes[block_index]
            comparisons = size * (size - 1) / 2
            if comparisons > 0:
                weight += 1.0 / comparisons
        return weight
    raise ConfigurationError(
        f"unknown weighting scheme {scheme!r}; known: {WEIGHT_SCHEMES}"
    )


def build_blocking_graph(result: BlockingResult, scheme: str) -> BlockingGraph:
    """The weighted graph for one weighting scheme, edge by edge."""
    block_ids_of: dict[str, set[int]] = {}
    for index, block in enumerate(result.blocks):
        for record_id in set(block):
            block_ids_of.setdefault(record_id, set()).add(index)

    frozen = {rid: frozenset(ids) for rid, ids in block_ids_of.items()}
    block_sizes = tuple(len(b) for b in result.blocks)

    # Degrees (|v_i| for EJS) need the distinct-neighbour counts first.
    neighbour_sets: dict[str, set[str]] = {}
    for pair in result.distinct_pairs:
        a, b = pair
        neighbour_sets.setdefault(a, set()).add(b)
        neighbour_sets.setdefault(b, set()).add(a)
    degrees = {rid: len(ns) for rid, ns in neighbour_sets.items()}
    total_edges = len(result.distinct_pairs)

    edges: dict[Pair, float] = {}
    for pair in result.distinct_pairs:
        a, b = pair
        edges[sorted_pair(a, b)] = edge_weight(
            scheme,
            blocks_a=frozen[a],
            blocks_b=frozen[b],
            num_blocks=len(result.blocks),
            block_sizes=block_sizes,
            degree_a=degrees[a],
            degree_b=degrees[b],
            total_edges=total_edges,
        )
    return BlockingGraph(
        edges=edges,
        block_ids_of=frozen,
        num_blocks=len(result.blocks),
        block_sizes=block_sizes,
    )


def _mean_threshold(weights) -> float:
    """Mean with a relative tolerance.

    Summation error can push the computed mean infinitesimally above
    every element when all weights are equal (e.g. a single block under
    ARCS); without the tolerance such graphs would prune *every* edge.
    """
    weights = list(weights)
    mean = sum(weights) / len(weights)
    return mean - 1e-12 * max(1.0, abs(mean))


def _wep(graph: BlockingGraph) -> set[Pair]:
    if not graph.edges:
        return set()
    threshold = _mean_threshold(graph.edges.values())
    return {pair for pair, weight in graph.edges.items() if weight >= threshold}


def _cep(graph: BlockingGraph) -> set[Pair]:
    if not graph.edges:
        return set()
    budget = sum(graph.block_sizes) // 2
    budget = max(1, min(budget, len(graph.edges)))
    heaviest = heapq.nlargest(
        budget, graph.edges.items(), key=lambda item: (item[1], item[0])
    )
    return {pair for pair, _ in heaviest}


def _wnp(graph: BlockingGraph) -> set[Pair]:
    kept: set[Pair] = set()
    for node, neighbours in graph.adjacency().items():
        if not neighbours:
            continue
        threshold = _mean_threshold(w for _, w in neighbours)
        for other, weight in neighbours:
            if weight >= threshold:
                kept.add(sorted_pair(node, other))
    return kept


def _cnp(graph: BlockingGraph) -> set[Pair]:
    if graph.num_nodes == 0:
        return set()
    k = max(1, sum(graph.block_sizes) // graph.num_nodes)
    kept: set[Pair] = set()
    for node, neighbours in graph.adjacency().items():
        top = heapq.nlargest(k, neighbours, key=lambda item: (item[1], item[0]))
        for other, _ in top:
            kept.add(sorted_pair(node, other))
    return kept


def prune(graph: BlockingGraph, algorithm: str) -> set[Pair]:
    """Apply one pruning algorithm; returns the surviving pairs."""
    if algorithm == "WEP":
        return _wep(graph)
    if algorithm == "CEP":
        return _cep(graph)
    if algorithm == "WNP":
        return _wnp(graph)
    if algorithm == "CNP":
        return _cnp(graph)
    raise ConfigurationError(
        f"unknown pruning algorithm {algorithm!r}; known: {PRUNING_ALGORITHMS}"
    )


def run_metablocking(
    result: BlockingResult, scheme: str, algorithm: str
) -> BlockingResult:
    """Meta-blocking through the dict graph: the surviving pairs, sorted,
    as size-2 blocks."""
    surviving = sorted(prune(build_blocking_graph(result, scheme), algorithm))
    return BlockingResult(
        blocker_name=f"{result.blocker_name}+{algorithm}/{scheme}",
        blocks=tuple(surviving),
        metadata={
            "source": result.blocker_name,
            "scheme": scheme,
            "algorithm": algorithm,
            "engine": "legacy",
            "input_blocks": result.num_blocks,
        },
    )
