"""Tests for the LSH blockers and BlockingResult."""

import pytest

from repro.core import (
    LSHBlocker,
    LSHForestBlocker,
    MultiProbeLSHBlocker,
    SALSHBlocker,
)
from repro.core.base import BlockingResult, make_blocks
from repro.datasets import fig1_dataset, fig1_semantic_function
from repro.errors import ConfigurationError
from repro.evaluation import evaluate_blocks
from repro.records import Dataset, Record
from repro.semantic import VoterSemanticFunction


class TestBlockingResult:
    def test_distinct_pairs_deduplicate_across_blocks(self):
        result = BlockingResult("x", (("a", "b"), ("b", "a"), ("a", "b", "c")))
        assert result.distinct_pairs == frozenset(
            {("a", "b"), ("a", "c"), ("b", "c")}
        )

    def test_multiset_comparisons_count_redundancy(self):
        result = BlockingResult("x", (("a", "b"), ("a", "b", "c")))
        assert result.num_multiset_comparisons == 1 + 3

    def test_max_block_size(self):
        result = BlockingResult("x", (("a", "b"), ("a", "b", "c")))
        assert result.max_block_size == 3

    def test_make_blocks_drops_singletons(self):
        assert make_blocks([["a"], ["a", "b"]]) == (("a", "b"),)

    def test_with_timing(self):
        result = BlockingResult("x", ()).with_timing(1.5)
        assert result.seconds == 1.5


class TestLSHBlocker:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            LSHBlocker(("title",), q=2, k=0, l=5)

    def test_identical_records_always_co_blocked(self):
        """Prop 5.2(1): textually identical records share every band."""
        ds = Dataset(
            [
                Record("a", {"title": "exactly the same"}, entity_id="e"),
                Record("b", {"title": "exactly the same"}, entity_id="e"),
                Record("c", {"title": "something else entirely ok"}, entity_id="f"),
            ]
        )
        blocker = LSHBlocker(("title",), q=2, k=2, l=4, seed=1)
        result = blocker.block(ds)
        assert ("a", "b") in result.distinct_pairs

    def test_deterministic_given_seed(self, tiny_dataset):
        b1 = LSHBlocker(("title",), q=2, k=2, l=6, seed=5).block(tiny_dataset)
        b2 = LSHBlocker(("title",), q=2, k=2, l=6, seed=5).block(tiny_dataset)
        assert b1.distinct_pairs == b2.distinct_pairs

    def test_different_seed_may_differ(self, tiny_dataset):
        b1 = LSHBlocker(("title",), q=2, k=4, l=2, seed=1).block(tiny_dataset)
        b2 = LSHBlocker(("title",), q=2, k=4, l=2, seed=2).block(tiny_dataset)
        # Not guaranteed different, but the metadata must reflect seeds;
        # the stronger check: both remain valid blockings of the dataset.
        for result in (b1, b2):
            for block in result.blocks:
                assert len(block) >= 2

    def test_recall_increases_with_tables(self, tiny_dataset):
        few = LSHBlocker(("title",), q=2, k=3, l=1, seed=3).block(tiny_dataset)
        many = LSHBlocker(("title",), q=2, k=3, l=12, seed=3).block(tiny_dataset)
        pc_few = evaluate_blocks(few, tiny_dataset).pc
        pc_many = evaluate_blocks(many, tiny_dataset).pc
        assert pc_many >= pc_few

    def test_metadata_and_timing_recorded(self, tiny_dataset):
        result = LSHBlocker(("title",), q=2, k=2, l=2, seed=0).block(tiny_dataset)
        assert result.metadata["k"] == 2
        assert result.seconds is not None and result.seconds >= 0.0

    def test_describe_mentions_parameters(self):
        blocker = LSHBlocker(("title",), q=3, k=4, l=63)
        assert "k=4" in blocker.describe() and "l=63" in blocker.describe()


class TestSALSHBlocker:
    def test_fig1_running_example(self):
        """Semantic gating removes the r4 pairs of Example 5.1:
        r4 (technical report) must not co-block with r1/r2 (conference
        versions) even though their titles are nearly identical."""
        ds = fig1_dataset()
        sf = fig1_semantic_function()
        lsh = LSHBlocker(("title", "authors"), q=2, k=2, l=8, seed=11)
        salsh = SALSHBlocker(
            ("title", "authors"), q=2, k=2, l=8, seed=11,
            semantic_function=sf, w="all", mode="or",
        )
        textual_pairs = lsh.block(ds).distinct_pairs
        semantic_pairs = salsh.block(ds).distinct_pairs

        assert ("r1", "r4") in textual_pairs  # textually near-identical
        assert ("r1", "r4") not in semantic_pairs  # c4 vs c7: simS = 0
        assert ("r2", "r4") not in semantic_pairs
        # Semantically compatible pairs survive the gate.
        assert ("r1", "r2") in semantic_pairs

    def test_salsh_pairs_subset_of_lsh(self, cora_small, tbib):
        """Prop 5.3: the semantic gate only removes pairs."""
        from repro.semantic import PatternSemanticFunction, cora_patterns

        sf = PatternSemanticFunction(tbib, cora_patterns())
        lsh = LSHBlocker(("authors", "title"), q=3, k=2, l=8, seed=4)
        salsh = SALSHBlocker(
            ("authors", "title"), q=3, k=2, l=8, seed=4,
            semantic_function=sf, w="all", mode="or",
        )
        assert salsh.block(cora_small).distinct_pairs <= lsh.block(
            cora_small
        ).distinct_pairs

    def test_semantically_disjoint_pairs_never_block(self, tbib):
        """Prop 5.3(1) end to end: identical text, unrelated concepts."""
        from repro.semantic import CallableSemanticFunction

        ds = Dataset(
            [
                Record("j", {"title": "identical title", "kind": "journal"}),
                Record("t", {"title": "identical title", "kind": "techreport"}),
            ]
        )
        sf = CallableSemanticFunction(
            tbib, lambda r: ("c3",) if r.get("kind") == "journal" else ("c7",)
        )
        salsh = SALSHBlocker(
            ("title",), q=2, k=1, l=10, seed=0,
            semantic_function=sf, w="all", mode="or",
        )
        assert salsh.block(ds).distinct_pairs == frozenset()

    def test_sf_seconds_recorded(self, tiny_dataset, tbib):
        from repro.semantic import CallableSemanticFunction

        sf = CallableSemanticFunction(tbib, lambda r: ("c3",))
        salsh = SALSHBlocker(
            ("title",), q=2, k=2, l=2, seed=0, semantic_function=sf
        )
        result = salsh.block(tiny_dataset)
        assert result.metadata["sf_seconds"] >= 0.0
        assert result.metadata["num_semantic_bits"] >= 1

    def test_invalid_mode_rejected(self, tbib):
        from repro.semantic import CallableSemanticFunction

        sf = CallableSemanticFunction(tbib, lambda r: ("c3",))
        with pytest.raises(ConfigurationError):
            SALSHBlocker(
                ("title",), q=2, k=2, l=2, semantic_function=sf, mode="nand"
            )


class TestEmptyCorpus:
    """Every LSH blocker degrades to empty blocks on an empty corpus,
    fresh or after it has blocked a non-empty one."""

    @staticmethod
    def _blockers(attributes):
        return [
            LSHBlocker(attributes, q=2, k=3, l=5),
            SALSHBlocker(
                attributes, q=2, k=3, l=5,
                semantic_function=VoterSemanticFunction(),
            ),
            MultiProbeLSHBlocker(attributes, q=2, k=3, l=5),
            LSHForestBlocker(attributes, q=2, k=3, l=5),
        ]

    def test_every_blocker_returns_no_blocks(self):
        empty = Dataset([])
        for blocker in self._blockers(("a",)):
            assert blocker.block(empty).blocks == (), blocker.name

    def test_reused_blocker_returns_no_blocks(self, voter_small):
        # A blocker whose memos and encoder were filled by an earlier
        # corpus must not carry any of it into an empty one.
        empty = Dataset([])
        for blocker in self._blockers(("first_name", "last_name")):
            assert blocker.block(voter_small).blocks, blocker.name
            assert blocker.block(empty).blocks == (), blocker.name
