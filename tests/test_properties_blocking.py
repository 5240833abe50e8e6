"""Property-based tests for blockers and meta-blocking invariants.

Hypothesis generates random record corpora and random block collections;
the invariants below must hold regardless of content:

* every blocker emits structurally valid blocks over known ids;
* pruning never invents pairs, and CEP respects its global budget;
* WEP keeps at least the heaviest edge; node-centric pruning keeps at
  least one edge per connected node;
* evaluation measures stay in [0, 1] and FM is dominated by PC and PQ.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import BlockingResult
from repro.evaluation import evaluate_blocks
from repro.metablocking import PRUNING_ALGORITHMS, WEIGHT_SCHEMES
from repro.records import Dataset, Record
from repro.reference import build_blocking_graph, prune

# -- strategies ---------------------------------------------------------------

_names = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=110), min_size=1, max_size=8
)


@st.composite
def small_corpus(draw) -> Dataset:
    """A corpus of 3-12 records over at most 4 entities."""
    size = draw(st.integers(min_value=3, max_value=12))
    records = []
    for index in range(size):
        entity = draw(st.integers(min_value=0, max_value=3))
        records.append(
            Record(
                f"r{index}",
                {"name": draw(_names)},
                entity_id=f"e{entity}",
            )
        )
    return Dataset(records)


@st.composite
def block_collection(draw):
    """Random overlapping blocks over a small id universe."""
    universe = [f"r{i}" for i in range(draw(st.integers(min_value=4, max_value=10)))]
    num_blocks = draw(st.integers(min_value=1, max_value=6))
    blocks = []
    for _ in range(num_blocks):
        members = draw(
            st.sets(st.sampled_from(universe), min_size=2, max_size=len(universe))
        )
        blocks.append(tuple(sorted(members)))
    return BlockingResult("random", tuple(blocks)), universe


# -- blocker structural invariants ----------------------------------------------


@settings(max_examples=40, deadline=None)
@given(small_corpus(), st.integers(min_value=0, max_value=50))
def test_lsh_blocker_structural_invariants(dataset, seed):
    from repro.core import LSHBlocker

    result = LSHBlocker(("name",), q=2, k=2, l=3, seed=seed).block(dataset)
    ids = set(dataset.record_ids)
    for block in result.blocks:
        assert len(block) >= 2
        assert set(block) <= ids
    metrics = evaluate_blocks(result, dataset)
    assert 0.0 <= metrics.pc <= 1.0
    assert 0.0 <= metrics.pq <= 1.0
    assert metrics.fm <= max(metrics.pc, metrics.pq) + 1e-12


@settings(max_examples=30, deadline=None)
@given(small_corpus())
def test_standard_blocker_partitions(dataset):
    """TBlo blocks are disjoint (a record has exactly one key)."""
    from repro.baselines import StandardBlocker

    result = StandardBlocker(("name",)).block(dataset)
    seen: set[str] = set()
    for block in result.blocks:
        assert not (set(block) & seen)
        seen |= set(block)


@settings(max_examples=30, deadline=None)
@given(small_corpus(), st.integers(min_value=2, max_value=5))
def test_sorted_neighbourhood_block_count(dataset, window):
    from repro.baselines import ArraySortedNeighbourhood

    result = ArraySortedNeighbourhood(("name",), window=window).block(dataset)
    if len(dataset) > window:
        assert result.num_blocks == len(dataset) - window + 1


# -- meta-blocking invariants -----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(block_collection(), st.sampled_from(WEIGHT_SCHEMES))
def test_graph_edges_match_distinct_pairs(data, scheme):
    result, _ = data
    graph = build_blocking_graph(result, scheme)
    assert set(graph.edges) == set(result.distinct_pairs)
    assert all(weight >= 0.0 for weight in graph.edges.values())


@settings(max_examples=40, deadline=None)
@given(
    block_collection(),
    st.sampled_from(WEIGHT_SCHEMES),
    st.sampled_from(PRUNING_ALGORITHMS),
)
def test_pruning_subset_of_edges(data, scheme, algorithm):
    result, _ = data
    graph = build_blocking_graph(result, scheme)
    kept = prune(graph, algorithm)
    assert kept <= set(graph.edges)


@settings(max_examples=40, deadline=None)
@given(block_collection(), st.sampled_from(WEIGHT_SCHEMES))
def test_cep_respects_budget(data, scheme):
    result, _ = data
    graph = build_blocking_graph(result, scheme)
    kept = prune(graph, "CEP")
    budget = max(1, sum(graph.block_sizes) // 2)
    assert len(kept) <= budget


@settings(max_examples=40, deadline=None)
@given(block_collection(), st.sampled_from(WEIGHT_SCHEMES))
def test_wep_keeps_heaviest_edge(data, scheme):
    result, _ = data
    graph = build_blocking_graph(result, scheme)
    if not graph.edges:
        return
    kept = prune(graph, "WEP")
    heaviest = max(graph.edges, key=lambda p: graph.edges[p])
    assert heaviest in kept


@settings(max_examples=40, deadline=None)
@given(block_collection(), st.sampled_from(WEIGHT_SCHEMES))
def test_node_pruning_covers_every_connected_node(data, scheme):
    """WNP/CNP keep at least one incident edge per node with edges."""
    result, _ = data
    graph = build_blocking_graph(result, scheme)
    connected = {a for a, _ in graph.edges} | {b for _, b in graph.edges}
    for algorithm in ("WNP", "CNP"):
        kept = prune(graph, algorithm)
        covered = {a for a, _ in kept} | {b for _, b in kept}
        assert connected == covered, algorithm
