"""Tests for meta-blocking: graph, weights, pruning, pipeline."""

import math

import pytest

from repro.core.base import BlockingResult
from repro.errors import ConfigurationError
from repro.evaluation import evaluate_blocks
from repro.metablocking import PRUNING_ALGORITHMS, WEIGHT_SCHEMES, run_metablocking
from repro.records import Dataset, Record
from repro.reference import build_blocking_graph, edge_weight, prune


def blocks_fixture():
    """Blocks: {a,b,c}, {a,b}, {c,d} — a,b co-occur twice."""
    return BlockingResult("src", (("a", "b", "c"), ("a", "b"), ("c", "d")))


def dataset_fixture():
    return Dataset(
        [
            Record("a", {}, entity_id="e1"),
            Record("b", {}, entity_id="e1"),
            Record("c", {}, entity_id="e2"),
            Record("d", {}, entity_id="e2"),
        ]
    )


class TestWeights:
    def test_cbs_counts_common_blocks(self):
        graph = build_blocking_graph(blocks_fixture(), "CBS")
        assert graph.edges[("a", "b")] == 2.0
        assert graph.edges[("a", "c")] == 1.0

    def test_js_normalises_by_union(self):
        graph = build_blocking_graph(blocks_fixture(), "JS")
        # a in blocks {0,1}, b in {0,1}: intersection 2, union 2.
        assert graph.edges[("a", "b")] == pytest.approx(1.0)
        # a in {0,1}, c in {0,2}: intersection 1, union 3.
        assert graph.edges[("a", "c")] == pytest.approx(1 / 3)

    def test_ecbs_weights_rare_blocks_higher(self):
        graph = build_blocking_graph(blocks_fixture(), "ECBS")
        expected = 2.0 * math.log(3 / 2) * math.log(3 / 2)
        assert graph.edges[("a", "b")] == pytest.approx(expected)

    def test_arcs_small_blocks_count_more(self):
        graph = build_blocking_graph(blocks_fixture(), "ARCS")
        # (a,b): block 0 has 3 comparisons, block 1 has 1.
        assert graph.edges[("a", "b")] == pytest.approx(1 / 3 + 1.0)
        assert graph.edges[("c", "d")] == pytest.approx(1.0)

    def test_ejs_scales_js_by_degree(self):
        graph = build_blocking_graph(blocks_fixture(), "EJS")
        # 4 total edges; deg(a)=2, deg(b)=2.
        expected = 1.0 * math.log(4 / 2) * math.log(4 / 2)
        assert graph.edges[("a", "b")] == pytest.approx(expected)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            edge_weight(
                "XX",
                blocks_a=frozenset(),
                blocks_b=frozenset(),
                num_blocks=0,
                block_sizes=(),
                degree_a=0,
                degree_b=0,
                total_edges=0,
            )

    def test_all_schemes_produce_finite_nonnegative(self):
        for scheme in WEIGHT_SCHEMES:
            graph = build_blocking_graph(blocks_fixture(), scheme)
            for weight in graph.edges.values():
                assert weight >= 0.0 and math.isfinite(weight)


class TestPruning:
    def test_wep_keeps_above_mean(self):
        graph = build_blocking_graph(blocks_fixture(), "CBS")
        kept = prune(graph, "WEP")
        # Mean weight = (2+1+1+1)/4 = 1.25 -> only (a,b) survives.
        assert kept == {("a", "b")}

    def test_cep_budget(self):
        graph = build_blocking_graph(blocks_fixture(), "CBS")
        kept = prune(graph, "CEP")
        # Budget = floor((3+2+2)/2) = 3 of 4 edges.
        assert len(kept) == 3
        assert ("a", "b") in kept

    def test_wnp_keeps_local_maxima(self):
        graph = build_blocking_graph(blocks_fixture(), "CBS")
        kept = prune(graph, "WNP")
        assert ("a", "b") in kept
        # d's only edge is (c,d): it survives d's local mean.
        assert ("c", "d") in kept

    def test_cnp_per_node_budget(self):
        graph = build_blocking_graph(blocks_fixture(), "CBS")
        kept = prune(graph, "CNP")
        # k = floor(7/4) = 1 edge per node.
        assert ("a", "b") in kept

    def test_unknown_algorithm(self):
        graph = build_blocking_graph(blocks_fixture(), "CBS")
        with pytest.raises(ConfigurationError):
            prune(graph, "ZAP")

    def test_empty_graph(self):
        graph = build_blocking_graph(BlockingResult("x", ()), "CBS")
        for algorithm in PRUNING_ALGORITHMS:
            assert prune(graph, algorithm) == set()


class TestPipeline:
    def test_output_blocks_are_pairs(self):
        pruned = run_metablocking(blocks_fixture(), "CBS", "WEP")
        assert all(len(block) == 2 for block in pruned.blocks)

    def test_pruning_cannot_add_pairs(self):
        source = blocks_fixture()
        for scheme in WEIGHT_SCHEMES:
            for algorithm in PRUNING_ALGORITHMS:
                pruned = run_metablocking(source, scheme, algorithm)
                assert pruned.distinct_pairs <= source.distinct_pairs

    def test_improves_pq_star_on_redundant_blocks(self):
        """Meta-blocking's purpose: fewer redundant comparisons."""
        ds = dataset_fixture()
        source = blocks_fixture()
        before = evaluate_blocks(source, ds)
        after = evaluate_blocks(run_metablocking(source, "CBS", "WEP"), ds)
        assert after.pq_star >= before.pq_star

    def test_metadata_tracks_configuration(self):
        pruned = run_metablocking(blocks_fixture(), "JS", "CNP")
        assert pruned.metadata["scheme"] == "JS"
        assert pruned.metadata["algorithm"] == "CNP"
