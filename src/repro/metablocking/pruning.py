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
and per-node segment partitioning of the doubled directed edge list
(WNP/CNP). Ties break identically to the heaps of the dict-graph
reference (:func:`repro.reference.metablocking.prune`): by weight, then
by pair key / neighbour index — and index order over the sorted local
vocabulary *is* lexicographic id order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.records.pairs import ArrayBlockingGraph

#: Pruning algorithm names accepted by :func:`prune_array`.
PRUNING_ALGORITHMS = ("WEP", "CEP", "WNP", "CNP")


def _mean_threshold(mean: float) -> float:
    """Mean with a relative tolerance.

    Summation error can push the computed mean infinitesimally above
    every element when all weights are equal (e.g. a single block under
    ARCS); without the tolerance such graphs would prune *every* edge.
    """
    return mean - 1e-12 * max(1.0, abs(mean))


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


def _directed_edges(
    graph: ArrayBlockingGraph, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each edge twice, once per endpoint: (node, neighbour, weight, edge)."""
    num_edges = graph.num_edges
    nodes = np.concatenate([graph.edge_left, graph.edge_right])
    neighbours = np.concatenate([graph.edge_right, graph.edge_left])
    doubled_weights = np.concatenate([weights, weights])
    edge_ids = np.concatenate([np.arange(num_edges), np.arange(num_edges)])
    return nodes, neighbours, doubled_weights, edge_ids


def _survivors(graph: ArrayBlockingGraph, edge_ids_kept: np.ndarray) -> np.ndarray:
    """Union the kept directed entries back onto the sorted edge list."""
    survive = np.zeros(graph.num_edges, dtype=bool)
    survive[edge_ids_kept] = True
    return graph.edge_keys[survive]


def _wnp_array(graph: ArrayBlockingGraph, weights: np.ndarray) -> np.ndarray:
    nodes, _, w, edge_ids = _directed_edges(graph, weights)
    order = np.argsort(nodes, kind="stable")
    nodes_sorted, w_sorted = nodes[order], w[order]
    counts = np.bincount(nodes, minlength=graph.num_nodes)
    active = counts > 0
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])[active]
    means = np.add.reduceat(w_sorted, starts) / counts[active]
    thresholds = np.empty(graph.num_nodes, dtype=np.float64)
    thresholds[active] = means - 1e-12 * np.maximum(1.0, np.abs(means))
    keep = w_sorted >= thresholds[nodes_sorted]
    return _survivors(graph, edge_ids[order][keep])


def _cnp_array(graph: ArrayBlockingGraph, weights: np.ndarray) -> np.ndarray:
    if graph.num_nodes == 0:
        return np.empty(0, dtype=np.uint64)
    k = max(1, int(graph.block_sizes.sum()) // graph.num_nodes)
    nodes, neighbours, w, edge_ids = _directed_edges(graph, weights)
    # Node-major, then ascending (weight, neighbour) inside each node's
    # segment: the top-k of nlargest keyed on (weight, neighbour id) are
    # the last k entries of the segment.
    order = np.lexsort((neighbours, w, nodes))
    nodes_sorted = nodes[order]
    ends = np.cumsum(np.bincount(nodes, minlength=graph.num_nodes))
    positions = np.arange(nodes_sorted.size)
    keep = positions >= ends[nodes_sorted] - k
    return _survivors(graph, edge_ids[order][keep])


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

