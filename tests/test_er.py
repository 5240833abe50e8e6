"""Tests for the downstream ER stage: matching, clustering, evaluation."""

import pytest

from repro.er import SimilarityMatcher, evaluate_resolution, resolve
from repro.errors import ConfigurationError
from repro.records import Dataset, Record
from repro.reference import connected_components


def dataset():
    return Dataset(
        [
            Record("a", {"name": "anna smith"}, entity_id="e1"),
            Record("b", {"name": "anna smith"}, entity_id="e1"),
            Record("c", {"name": "anna smyth"}, entity_id="e1"),
            Record("d", {"name": "robert jones"}, entity_id="e2"),
            Record("e", {"name": "bob jones"}, entity_id="e2"),
            Record("f", {"name": "carol white"}, entity_id="e3"),
        ]
    )


class TestSimilarityMatcher:
    def test_identical_pair_is_match(self):
        matcher = SimilarityMatcher({"name": "jaro_winkler"})
        decision = matcher.classify(dataset(), ("a", "b"))
        assert decision.label == "match"
        assert decision.score == 1.0

    def test_dissimilar_pair_is_non_match(self):
        matcher = SimilarityMatcher({"name": "jaro_winkler"})
        assert matcher.classify(dataset(), ("a", "f")).label == "non-match"

    def test_possible_region(self):
        matcher = SimilarityMatcher(
            {"name": "jaro_winkler"},
            match_threshold=0.99,
            possible_threshold=0.80,
        )
        decision = matcher.classify(dataset(), ("a", "c"))  # smith/smyth
        assert decision.label == "possible"

    def test_weights_normalised(self):
        matcher = SimilarityMatcher(
            {"name": "exact", "other": "exact"},
            weights={"name": 3.0, "other": 1.0},
        )
        ds = Dataset(
            [
                Record("x", {"name": "same", "other": "differs"}),
                Record("y", {"name": "same", "other": "other"}),
            ]
        )
        assert matcher.score(ds, ("x", "y")) == pytest.approx(0.75)

    def test_invalid_thresholds(self):
        with pytest.raises(ConfigurationError):
            SimilarityMatcher(
                {"name": "exact"}, match_threshold=0.5, possible_threshold=0.8
            )

    def test_empty_attributes_rejected(self):
        with pytest.raises(ConfigurationError):
            SimilarityMatcher({})

    def test_matches_filters_labels(self):
        matcher = SimilarityMatcher({"name": "jaro_winkler"})
        candidates = {("a", "b"), ("a", "f")}
        assert matcher.matches(dataset(), candidates) == {("a", "b")}

    def test_match_pairs_sorted(self):
        matcher = SimilarityMatcher({"name": "exact"})
        decisions = matcher.match_pairs(dataset(), {("d", "e"), ("a", "b")})
        assert [d.pair for d in decisions] == [("a", "b"), ("d", "e")]


class TestClustering:
    def test_transitive_closure(self):
        clusters = connected_components(
            ["a", "b", "c", "d"], [("a", "b"), ("b", "c")]
        )
        assert ["a", "b", "c"] in clusters
        assert ["d"] in clusters

    def test_no_matches_all_singletons(self):
        clusters = connected_components(["x", "y"], [])
        assert clusters == [["x"], ["y"]]

    def test_resolve_covers_every_record(self):
        ds = dataset()
        clusters = resolve(ds, [("a", "b")])
        covered = {rid for cluster in clusters for rid in cluster}
        assert covered == set(ds.record_ids)

    def test_deterministic_order(self):
        c1 = connected_components(["b", "a", "c"], [("c", "a")])
        c2 = connected_components(["c", "b", "a"], [("a", "c")])
        assert c1 == c2


class TestResolutionMetrics:
    def test_perfect_resolution(self):
        ds = dataset()
        clusters = [["a", "b", "c"], ["d", "e"], ["f"]]
        metrics = evaluate_resolution(clusters, ds)
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0
        assert metrics.f1 == 1.0

    def test_over_merged_clusters_lose_precision(self):
        ds = dataset()
        metrics = evaluate_resolution([list("abcdef")], ds)
        assert metrics.recall == 1.0
        assert metrics.precision < 0.5

    def test_all_singletons_zero_recall(self):
        ds = dataset()
        metrics = evaluate_resolution([[r] for r in ds.record_ids], ds)
        assert metrics.recall == 0.0
        assert metrics.f1 == 0.0


class TestEndToEnd:
    def test_block_match_cluster_pipeline(self, cora_small):
        """The full two-stage process of §2 on a generated corpus."""
        from repro.core import LSHBlocker

        blocker = LSHBlocker(("authors", "title"), q=3, k=3, l=19, seed=3)
        candidates = blocker.block(cora_small).distinct_pairs
        matcher = SimilarityMatcher(
            {"title": "jaro_winkler", "authors": "jaro_winkler"},
            match_threshold=0.90,
        )
        matched = matcher.matches(cora_small, candidates)
        clusters = resolve(cora_small, matched)
        metrics = evaluate_resolution(clusters, cora_small)
        # Blocking + conservative matching must produce a usable
        # resolution: precise and with meaningful recall.
        assert metrics.precision > 0.8
        assert metrics.recall > 0.3
