"""Pruning algorithms of meta-blocking (Papadakis et al., 2014).

* WEP — Weighted Edge Pruning: keep edges with weight >= the global
  mean weight.
* CEP — Cardinality Edge Pruning: keep the K globally heaviest edges,
  K = floor(Σ_b |b| / 2).
* WNP — Weighted Node Pruning: per node, keep edges >= the node's mean
  incident weight; surviving edges are the union over nodes.
* CNP — Cardinality Node Pruning: per node, keep its k heaviest edges,
  k = max(1, floor(Σ_b |b| / |V|)); union over nodes.

:func:`prune_array` applies them to an :class:`ArrayBlockingGraph`
edge list — the result's shared graph (``BlockingResult.graph``) —
with vectorized thresholding (WEP), one global lexsort (CEP),
per-node weight sums and counts from ``np.bincount`` over both
endpoints (WNP), and per-node segment partitioning of the doubled
directed edge list (CNP). Ties break identically to the heaps of the
dict-graph reference (:func:`repro.reference.metablocking.prune`): by
weight, then by pair key / neighbour index — and index order over the
sorted local vocabulary *is* lexicographic id order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.records.pairs import ArrayBlockingGraph

#: Pruning algorithm names accepted by :func:`prune_array`.
PRUNING_ALGORITHMS = ("WEP", "CEP", "WNP", "CNP")


def _mean_threshold(mean):
    """Mean (a float or an array of them) with a relative tolerance.

    Summation error can push the computed mean infinitesimally above
    every element when all weights are equal (e.g. a single block under
    ARCS); without the tolerance such graphs would prune *every* edge.
    """
    return mean - 1e-12 * np.maximum(1.0, np.abs(mean))


def _wep_array(graph: ArrayBlockingGraph, weights: np.ndarray) -> np.ndarray:
    threshold = _mean_threshold(float(weights.mean()))
    return graph.edge_keys[weights >= threshold]


def _cep_array(graph: ArrayBlockingGraph, weights: np.ndarray) -> np.ndarray:
    budget = int(graph.block_sizes.sum()) // 2
    budget = max(1, min(budget, graph.num_edges))
    # Ascending (weight, key) sort; the heaviest `budget` edges are the
    # tail — the same selection as nlargest keyed on (weight, pair).
    order = np.lexsort((graph.edge_keys, weights))
    return np.sort(graph.edge_keys[order[-budget:]])


def _wnp_array(graph: ArrayBlockingGraph, weights: np.ndarray) -> np.ndarray:
    # Each node's mean incident weight, from weight sums and edge counts
    # over both endpoints; an edge survives when it reaches either
    # endpoint's threshold (the union over nodes).
    left, right = graph.edge_left, graph.edge_right
    n = graph.num_nodes
    sums = np.bincount(left, weights, n) + np.bincount(right, weights, n)
    degrees = graph.node_degrees
    means = np.divide(sums, degrees, out=np.zeros(n), where=degrees > 0)
    thresholds = _mean_threshold(means)
    keep = (weights >= thresholds[left]) | (weights >= thresholds[right])
    return graph.edge_keys[keep]


def _cnp_array(graph: ArrayBlockingGraph, weights: np.ndarray) -> np.ndarray:
    if graph.num_nodes == 0:
        return np.empty(0, dtype=np.uint64)
    k = max(1, int(graph.block_sizes.sum()) // graph.num_nodes)
    # Each edge twice, once per endpoint; directed entry i is edge
    # i mod |E|. Node-major, then ascending (weight, neighbour) inside
    # each node's segment: the top-k of nlargest keyed on (weight,
    # neighbour id) are the last k entries of the segment.
    nodes = np.concatenate([graph.edge_left, graph.edge_right])
    neighbours = np.concatenate([graph.edge_right, graph.edge_left])
    order = np.lexsort((neighbours, np.concatenate([weights, weights]), nodes))
    ends = np.cumsum(graph.node_degrees)
    keep = np.arange(nodes.size) >= ends[nodes[order]] - k
    survive = np.zeros(graph.num_edges, dtype=bool)
    survive[order[keep] % graph.num_edges] = True
    return graph.edge_keys[survive]


_PRUNERS = {"WEP": _wep_array, "CEP": _cep_array, "WNP": _wnp_array, "CNP": _cnp_array}


def prune_array(
    graph: ArrayBlockingGraph, weights: np.ndarray, algorithm: str
) -> np.ndarray:
    """Apply one pruning algorithm to the array graph.

    Returns the surviving edges as sorted ``uint64`` pair keys over
    ``graph.ids`` (decode with
    :func:`repro.records.pairs.pairs_from_keys`).
    """
    prune = _PRUNERS.get(algorithm)
    if prune is None:
        raise ConfigurationError(
            f"unknown pruning algorithm {algorithm!r}; known: {PRUNING_ALGORITHMS}"
        )
    if graph.num_edges == 0:
        return np.empty(0, dtype=np.uint64)
    return prune(graph, weights)

