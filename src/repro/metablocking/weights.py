"""Edge weighting schemes of meta-blocking (Papadakis et al., 2014).

* CBS  — Common Blocks Scheme: |B_i ∩ B_j|.
* ECBS — Enhanced CBS: CBS · log(|B|/|B_i|) · log(|B|/|B_j|).
* JS   — Jaccard Scheme: |B_i ∩ B_j| / (|B_i| + |B_j| - |B_i ∩ B_j|).
* EJS  — Enhanced JS: JS · log(|E|/|v_i|) · log(|E|/|v_j|).
* ARCS — Aggregate Reciprocal Comparisons: Σ_{b ∈ B_i ∩ B_j} 1/||b||,
  with ||b|| the comparisons in block b.

:func:`compute_weights` scores an :class:`ArrayBlockingGraph`'s whole
edge list at once. It evaluates the per-record ``log`` factors of
ECBS/EJS with ``math.log`` (one call per record, not per edge) so its
weights are bitwise identical to the per-edge reference
(:func:`repro.reference.metablocking.edge_weight`), then combines them
as whole-array expressions over the edge list.
"""

from __future__ import annotations

import math
import numpy as np

from repro.errors import ConfigurationError
from repro.metablocking.graph import ArrayBlockingGraph

#: Scheme names accepted by :func:`compute_weights`.
WEIGHT_SCHEMES = ("ARCS", "CBS", "ECBS", "JS", "EJS")


def _log_table(values: np.ndarray, transform) -> np.ndarray:
    """Per-record ``math.log`` factors (bit-compatible with the reference)."""
    return np.fromiter(
        (transform(v) for v in values.tolist()),
        dtype=np.float64,
        count=values.size,
    )


def compute_weights(graph: ArrayBlockingGraph, scheme: str) -> np.ndarray:
    """Weights of the whole edge list under one scheme (float64).

    Aligned with ``graph.edge_keys``; every scheme is one whole-array
    expression over the precomputed co-occurrence statistics.
    """
    cbs = graph.common_blocks
    if scheme == "CBS":
        return cbs.copy()
    if scheme == "ECBS":
        num_blocks = graph.num_blocks
        table = _log_table(
            graph.blocks_per_record,
            lambda count: math.log(num_blocks / count) if count else 0.0,
        )
        return cbs * table[graph.edge_left] * table[graph.edge_right]
    if scheme == "JS" or scheme == "EJS":
        blocks_per = graph.blocks_per_record
        union = blocks_per[graph.edge_left] + blocks_per[graph.edge_right] - cbs
        js = np.zeros_like(cbs)
        np.divide(cbs, union, out=js, where=union > 0)
        if scheme == "JS":
            return js
        total_edges = graph.num_edges
        if total_edges == 0:
            return js
        table = _log_table(
            graph.node_degrees,
            lambda degree: (
                math.log(max(total_edges / degree, 1.0)) if degree else 0.0
            ),
        )
        return js * table[graph.edge_left] * table[graph.edge_right]
    if scheme == "ARCS":
        return graph.arcs.copy()
    raise ConfigurationError(
        f"unknown weighting scheme {scheme!r}; known: {WEIGHT_SCHEMES}"
    )
