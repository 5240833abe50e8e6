"""Equivalence suite for the array-backed candidate-pair engine.

Asserts the array paths — pair enumeration, the PC/PQ/RR/FM metrics,
every meta-blocking weighting scheme, every pruning policy, and the
batch matcher — are value-identical to the legacy per-pair Python paths
on the paper's Fig. 1 records, a Cora-like slice, and a seeded
NCVoterLike slice, plus handcrafted edge cases (duplicate ids inside a
block, empty results, foreign ids).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import reference
from repro.core import LSHBlocker
from repro.core.base import BlockingResult
from repro.datasets import CoraLikeGenerator, NCVoterLikeGenerator, fig1_dataset
from repro.er import SimilarityMatcher
from repro.errors import DatasetError, EvaluationError
from repro.evaluation import evaluate_blocks
from repro.evaluation.objective import blocking_objective
from repro.metablocking import (
    PRUNING_ALGORITHMS,
    WEIGHT_SCHEMES,
    build_array_graph,
    compute_weights,
    prune_array,
    run_metablocking,
)
from repro.records import Dataset, Record
from repro.records.ground_truth import sorted_pair
from repro.records.pairs import (
    decode_pair_keys,
    encode_pair_keys,
    enumerate_csr_pairs,
    pairs_from_keys,
    unique_pair_keys,
)
from repro.reference import build_blocking_graph, prune


@pytest.fixture(scope="module")
def cora_slice() -> Dataset:
    return CoraLikeGenerator(num_records=260, num_entities=40, seed=11).generate()


@pytest.fixture(scope="module")
def voter_slice() -> Dataset:
    return NCVoterLikeGenerator(num_records=420, seed=23).generate()


def _blocked(dataset: Dataset, attributes: tuple[str, ...]) -> BlockingResult:
    return LSHBlocker(attributes, q=2, k=3, l=8, seed=5).block(dataset)


@pytest.fixture(scope="module")
def corpora(cora_slice, voter_slice) -> list[tuple[Dataset, BlockingResult]]:
    """(dataset, blocking result) per benchmark corpus."""
    fig1 = fig1_dataset()
    return [
        (fig1, _blocked(fig1, ("title", "authors"))),
        (cora_slice, _blocked(cora_slice, ("authors", "title"))),
        (voter_slice, _blocked(voter_slice, ("first_name", "last_name"))),
    ]


#: Handcrafted results covering redundancy, within-block duplicate ids,
#: self-only blocks and the empty collection.
EDGE_RESULTS = (
    BlockingResult("overlap", (("a", "b", "c"), ("a", "b"), ("c", "d"))),
    BlockingResult("dups", (("a", "a", "b"), ("b", "c"), ("b", "c"), ("w", "x", "y", "z"))),
    BlockingResult("selfonly", (("a", "a"),)),
    BlockingResult("empty", ()),
)


class TestPairKeys:
    def test_roundtrip(self):
        left = np.array([3, 0, 7, 7], dtype=np.int64)
        right = np.array([1, 9, 2, 8], dtype=np.int64)
        keys = encode_pair_keys(left, right)
        lo, hi = decode_pair_keys(keys)
        assert (lo == np.minimum(left, right)).all()
        assert (hi == np.maximum(left, right)).all()

    def test_key_order_is_pair_order(self):
        # Numeric key order == lexicographic order of (lo, hi) tuples.
        keys = unique_pair_keys(
            np.array([2, 0, 1, 0]), np.array([3, 1, 2, 2])
        )
        lo, hi = decode_pair_keys(keys)
        tuples = list(zip(lo.tolist(), hi.tolist()))
        assert tuples == sorted(tuples)

    def test_enumerate_drops_self_pairs(self):
        offsets = np.array([0, 3], dtype=np.int64)
        indices = np.array([4, 4, 5], dtype=np.int32)
        left, right = enumerate_csr_pairs(offsets, indices)
        assert list(zip(left.tolist(), right.tolist())) == [(4, 5), (4, 5)]
        # (4,5) kept once per slot pair, the (4,4) self-pair dropped.

    def test_enumerate_group_ids(self):
        offsets = np.array([0, 2, 2, 5], dtype=np.int64)
        indices = np.array([0, 1, 2, 3, 4], dtype=np.int32)
        left, right, groups = enumerate_csr_pairs(
            offsets, indices, with_group_ids=True
        )
        by_group = sorted(zip(groups.tolist(), left.tolist(), right.tolist()))
        assert by_group == [(0, 0, 1), (2, 2, 3), (2, 2, 4), (2, 3, 4)]


class TestDatasetCodec:
    def test_encode_decode_roundtrip(self, voter_slice):
        ids = voter_slice.record_ids[10:40]
        encoded = voter_slice.encode_ids(ids)
        assert encoded.dtype == np.int32
        assert voter_slice.decode_ids(encoded) == ids

    def test_index_of(self, voter_slice):
        rid = voter_slice.record_ids[7]
        assert voter_slice.index_of(rid) == 7

    def test_unknown_id_raises(self, voter_slice):
        with pytest.raises(DatasetError):
            voter_slice.encode_ids(["nope"])
        with pytest.raises(DatasetError):
            voter_slice.index_of("nope")

    def test_true_match_keys_equal_legacy_set(self, corpora):
        for dataset, _ in corpora:
            decoded = {
                sorted_pair(*pair)
                for pair in pairs_from_keys(
                    dataset.true_match_keys, dataset.decode_ids(range(len(dataset)))
                )
            }
            assert decoded == dataset.true_matches
            assert dataset.num_true_matches == len(dataset.true_matches)

    def test_true_match_keys_cached(self, voter_slice):
        assert voter_slice.true_match_keys is voter_slice.true_match_keys


class TestPairEnumeration:
    def test_distinct_pairs_match_legacy(self, corpora):
        for _, result in corpora:
            assert result.distinct_pairs == reference.distinct_pairs(result)

    def test_edge_results_match_legacy(self):
        for result in EDGE_RESULTS:
            assert result.distinct_pairs == reference.distinct_pairs(result)

    def test_pair_keys_decode_to_distinct_pairs(self, corpora):
        for dataset, result in corpora:
            keys = result.pair_keys(dataset)
            assert keys.dtype == np.uint64
            assert (np.diff(keys.astype(np.int64)) > 0).all()  # sorted unique
            decoded = {
                sorted_pair(*pair)
                for pair in pairs_from_keys(
                    keys, dataset.decode_ids(range(len(dataset)))
                )
            }
            assert decoded == set(result.distinct_pairs)

    def test_pair_keys_cached_per_dataset(self, corpora):
        dataset, result = corpora[0]
        assert result.pair_keys(dataset) is result.pair_keys(dataset)

    def test_pair_keys_foreign_id_raises(self, voter_slice):
        with pytest.raises(DatasetError):
            BlockingResult("bad", (("ghost-1", "ghost-2"),)).pair_keys(voter_slice)


class TestMetricsEquivalence:
    def test_metrics_identical(self, corpora):
        for dataset, result in corpora:
            array_metrics = evaluate_blocks(result, dataset)
            legacy_metrics = reference.evaluate_blocks(result, dataset)
            assert array_metrics == legacy_metrics

    def test_unknown_record_is_evaluation_error(self, voter_slice):
        bad = BlockingResult("bad", ((voter_slice.record_ids[0], "zzz"),))
        with pytest.raises(EvaluationError):
            evaluate_blocks(bad, voter_slice)
        with pytest.raises(EvaluationError):
            reference.evaluate_blocks(bad, voter_slice)

    def test_objective_matches_legacy_sets(self, corpora):
        for dataset, result in corpora:
            value = blocking_objective(result, dataset, epsilon=0.2)
            candidates = reference.distinct_pairs(result)
            tp = len(candidates & dataset.true_matches)
            expected_share = (
                (len(candidates) - tp) / len(candidates) if candidates else 0.0
            )
            assert value.non_match_share == pytest.approx(expected_share)
            assert value.match_loss == pytest.approx(
                1.0 - tp / len(dataset.true_matches)
            )

    def test_objective_foreign_ids_fall_back(self, voter_slice):
        known = voter_slice.record_ids[0]
        foreign = BlockingResult("f", ((known, "ghost"),))
        value = blocking_objective(foreign, voter_slice, epsilon=1.0)
        assert value.non_match_share == 1.0  # the foreign pair is no TP


class TestMetaBlockingEquivalence:
    def _graph_pairs(self, result):
        graph = build_array_graph(result)
        return graph, pairs_from_keys(graph.edge_keys, graph.ids)

    @pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
    def test_weights_bitwise_identical(self, scheme, corpora):
        for _, result in list(corpora) + [(None, r) for r in EDGE_RESULTS]:
            graph, edge_pairs = self._graph_pairs(result)
            weights = compute_weights(graph, scheme)
            legacy = build_blocking_graph(result, scheme)
            assert dict(zip(edge_pairs, weights.tolist())) == legacy.edges

    @pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
    @pytest.mark.parametrize("algorithm", PRUNING_ALGORITHMS)
    def test_pruning_identical(self, scheme, algorithm, corpora):
        for _, result in list(corpora) + [(None, r) for r in EDGE_RESULTS]:
            graph = build_array_graph(result)
            weights = compute_weights(graph, scheme)
            kept_array = set(
                pairs_from_keys(prune_array(graph, weights, algorithm), graph.ids)
            )
            legacy = build_blocking_graph(result, scheme)
            assert kept_array == prune(legacy, algorithm)

    def test_run_metablocking_engines_identical(self, corpora):
        for _, result in corpora:
            for scheme in ("CBS", "ARCS"):
                for algorithm in PRUNING_ALGORITHMS:
                    array_run = run_metablocking(result, scheme, algorithm)
                    legacy_run = reference.run_metablocking(
                        result, scheme, algorithm
                    )
                    assert array_run.blocks == legacy_run.blocks
                    assert array_run.metadata["engine"] == "array"

    def test_degree_derived_once(self):
        result = EDGE_RESULTS[0]
        graph = build_blocking_graph(result, "CBS")
        brute = {
            rid: sum(1 for a, b in graph.edges if rid in (a, b))
            for rid in graph.block_ids_of
        }
        assert {rid: graph.degree(rid) for rid in brute} == brute
        assert graph.degrees is graph.degrees  # cached, not rescanned
        assert graph.degree("ghost") == 0

    def test_incidence_csr_matches_record_block_ids(self, corpora):
        for _, result in corpora:
            graph = build_array_graph(result)
            legacy_assignment = reference.record_block_ids(result)
            for position, rid in enumerate(graph.ids):
                start = graph.record_block_offsets[position]
                stop = graph.record_block_offsets[position + 1]
                assert (
                    graph.record_block_ids[start:stop].tolist()
                    == sorted(legacy_assignment[rid])
                )


class TestBatchMatcher:
    MATCHERS = (
        {"first_name": "jaccard_q2", "last_name": "exact"},
        {"first_name": "jaro_winkler", "last_name": "jaccard_q3"},
    )

    def _pairs(self, result):
        return sorted(result.distinct_pairs)

    def test_scores_bitwise_identical(self, voter_slice):
        result = _blocked(voter_slice, ("first_name", "last_name"))
        pairs = self._pairs(result)
        assert pairs
        for config in self.MATCHERS:
            matcher = SimilarityMatcher(config, match_threshold=0.9)
            batch = matcher.score_pairs(voter_slice, pairs)
            loop = np.array([matcher.score(voter_slice, p) for p in pairs])
            assert (batch == loop).all()

    def test_decisions_identical(self, cora_slice):
        result = _blocked(cora_slice, ("authors", "title"))
        pairs = self._pairs(result)
        matcher = SimilarityMatcher(
            {"title": "jaccard_q3", "authors": "exact"},
            weights={"title": 3.0, "authors": 1.0},
            match_threshold=0.8,
            possible_threshold=0.5,
        )
        assert matcher.match_pairs(cora_slice, pairs) == reference.match_pairs(
            matcher, cora_slice, pairs
        )

    def test_matches_identical(self, voter_slice):
        result = _blocked(voter_slice, ("first_name", "last_name"))
        pairs = self._pairs(result)
        matcher = SimilarityMatcher(
            {"first_name": "jaccard_q2", "last_name": "jaccard_q2"},
            match_threshold=0.75,
        )
        batch_matches = matcher.matches(voter_slice, pairs)
        legacy_matches = {
            d.pair
            for d in reference.match_pairs(matcher, voter_slice, pairs)
            if d.label == "match"
        }
        assert batch_matches == legacy_matches

    def test_empty_and_missing_attributes(self):
        dataset = Dataset(
            [
                Record("a", {"name": ""}),
                Record("b", {}),
                Record("c", {"name": "x"}),
            ]
        )
        matcher = SimilarityMatcher({"name": "jaccard_q2"})
        pairs = [("a", "b"), ("a", "c"), ("b", "c")]
        batch = matcher.score_pairs(dataset, pairs)
        loop = [matcher.score(dataset, p) for p in pairs]
        assert batch.tolist() == loop
        assert batch[0] == 1.0  # empty vs missing: both empty gram sets
