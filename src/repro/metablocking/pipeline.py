"""End-to-end meta-blocking: blocks -> weighted graph -> pruned pairs."""

from __future__ import annotations

from repro.core.base import BlockingResult
from repro.metablocking.graph import build_array_graph
from repro.metablocking.pruning import prune_array
from repro.metablocking.weights import compute_weights
from repro.records.pairs import pairs_from_keys


def run_metablocking(
    result: BlockingResult, scheme: str, algorithm: str
) -> BlockingResult:
    """Restructure a block collection with meta-blocking.

    The output's blocks are the surviving record pairs (size-2 blocks),
    the standard form for evaluating meta-blocking with PC / PQ* / FM*
    (Fig. 12). The whole graph-weight-prune pipeline runs on the
    candidate-pair arrays.
    """
    graph = build_array_graph(result)
    keys = prune_array(graph, compute_weights(graph, scheme), algorithm)
    # Keys are sorted and the vocabulary is sorted, so the decoded pairs
    # land in sorted() order.
    surviving = pairs_from_keys(keys, graph.ids)
    return BlockingResult(
        blocker_name=f"{result.blocker_name}+{algorithm}/{scheme}",
        blocks=tuple(surviving),
        metadata={
            "source": result.blocker_name,
            "scheme": scheme,
            "algorithm": algorithm,
            "engine": "array",
            "input_blocks": result.num_blocks,
        },
    )
