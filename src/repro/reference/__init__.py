"""Reference engines: the record-at-a-time and per-pair oracles.

Every production layer runs one array engine. The paths it replaced
live on here, with the same algorithms and outputs, for two readers
only: the equivalence suites
(which assert each engine equals its oracle byte for byte) and the
benchmarks (whose per-record and legacy columns time them as floors).
No library module outside this package imports it
(``tests/test_reference_boundary.py`` checks that).

* :mod:`repro.reference.blocking` — the paper-literal per-record loops
  of LSH and SA-LSH (one signature, one ``split_bands`` and one dict
  append per table and gate suffix), and of MP-LSH and LSH-Forest;
* :mod:`repro.reference.pairs` — Γ, the bipartite cross pairs and the
  record → block assignment by per-block Python loops;
* :mod:`repro.reference.evaluation` — PC/PQ/RR/FM over Python pair sets;
* :mod:`repro.reference.metablocking` — the dict blocking graph, its
  per-edge weights and heap-based pruning;
* :mod:`repro.reference.er` — the string union-find and the per-pair
  matcher;
* :mod:`repro.reference.baselines` — QGr's deletion-frontier BFS.

See DESIGN.md, "Reference engines", for which test and bench column
compares each oracle with its engine.
"""

from repro.reference.baselines import qgram_sublists
from repro.reference.blocking import (
    banded_buckets,
    forest_blocks,
    lsh_blocks,
    multiprobe_blocks,
    per_record_blocks,
    salsh_blocks,
)
from repro.reference.er import connected_components, match_pairs, resolve
from repro.reference.evaluation import evaluate_blocks, evaluate_linkage
from repro.reference.metablocking import (
    BlockingGraph,
    build_blocking_graph,
    edge_weight,
    prune,
    run_metablocking,
)
from repro.reference.pairs import cross_pairs, distinct_pairs, record_block_ids

__all__ = [
    "BlockingGraph",
    "banded_buckets",
    "build_blocking_graph",
    "connected_components",
    "cross_pairs",
    "distinct_pairs",
    "edge_weight",
    "evaluate_blocks",
    "evaluate_linkage",
    "forest_blocks",
    "lsh_blocks",
    "match_pairs",
    "multiprobe_blocks",
    "per_record_blocks",
    "prune",
    "qgram_sublists",
    "record_block_ids",
    "resolve",
    "run_metablocking",
    "salsh_blocks",
]
