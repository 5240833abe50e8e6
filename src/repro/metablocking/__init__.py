"""Meta-blocking (Papadakis et al., TKDE 2014) — the Fig. 12 comparator.

Meta-blocking restructures an existing block collection: build the
*blocking graph* (nodes = records, edges = co-occurring pairs), weight
the edges, prune weak ones, and emit the surviving edges as the new
candidate pairs.
"""

from repro.metablocking.graph import ArrayBlockingGraph, build_array_graph
from repro.metablocking.weights import WEIGHT_SCHEMES, compute_weights
from repro.metablocking.pruning import PRUNING_ALGORITHMS, prune_array
from repro.metablocking.pipeline import run_metablocking

__all__ = [
    "ArrayBlockingGraph",
    "build_array_graph",
    "WEIGHT_SCHEMES",
    "compute_weights",
    "PRUNING_ALGORITHMS",
    "prune_array",
    "run_metablocking",
]
