"""Pair-engine follow-ons: array connected components and the QGr
batch sub-list frontier (ROADMAP items landed with the process-sharded
runtime PR)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import reference
from repro.baselines import QGramBlocker
from repro.er import component_labels, connected_components_arrays, resolve
from repro.errors import ConfigurationError
from repro.records.pairs import encode_pair_keys
from repro.reference import connected_components


class TestArrayConnectedComponents:
    def test_matches_legacy_on_random_graphs(self, voter_small):
        ids = voter_small.record_ids
        rng = random.Random(0)
        for _ in range(5):
            pairs = [
                tuple(rng.sample(ids, 2))
                for _ in range(rng.randrange(0, 400))
            ]
            assert resolve(voter_small, pairs) == reference.resolve(
                voter_small, pairs
            )

    def test_chain_graph(self, voter_small):
        # Worst case for naive propagation: one long path component.
        ids = voter_small.record_ids
        chain = [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
        clusters = resolve(voter_small, chain)
        assert clusters == reference.resolve(voter_small, chain)
        assert len(clusters) == 1

    def test_empty_pairs_all_singletons(self, fig1):
        clusters = resolve(fig1, [])
        assert clusters == sorted([rid] for rid in fig1.record_ids)

    def test_component_labels_roots_are_min_indices(self):
        keys = encode_pair_keys(
            np.array([0, 3, 5]), np.array([1, 4, 3])
        )
        labels = component_labels(6, keys)
        assert labels.tolist() == [0, 0, 2, 3, 3, 3]

    def test_component_labels_validates_range(self):
        keys = encode_pair_keys(np.array([0]), np.array([9]))
        with pytest.raises(ConfigurationError):
            component_labels(5, keys)

    def test_arrays_engine_direct(self):
        ids = ["r3", "r1", "r2", "r0"]
        keys = encode_pair_keys(np.array([0, 2]), np.array([1, 3]))
        clusters = connected_components_arrays(ids, keys)
        assert clusters == connected_components(ids, [("r3", "r1"), ("r2", "r0")])


class TestQGramFrontier:
    @pytest.mark.parametrize("threshold", [0.5, 0.7, 0.8, 0.9, 1.0])
    def test_sublists_match_legacy(self, threshold):
        blocker = QGramBlocker(("x",), q=2, threshold=threshold)
        rng = random.Random(1)
        grams_pool = ["ab", "bc", "cd", "de", "ef", "ab", "bc"]
        for _ in range(60):
            grams = tuple(
                rng.choice(grams_pool) for _ in range(rng.randrange(1, 9))
            )
            assert blocker._sublists(grams) == reference.qgram_sublists(
                blocker, grams
            )

    def test_blocks_match_legacy_engine(self, voter_small):
        new = QGramBlocker(("first_name",), q=2, threshold=0.8).block(voter_small)
        legacy_blocker = QGramBlocker(("first_name",), q=2, threshold=0.8)
        legacy_blocker._sublists = lambda grams: reference.qgram_sublists(
            legacy_blocker, grams
        )
        legacy = legacy_blocker.block(voter_small)
        # Bucket emission order depends on set iteration; the block
        # *collection* (and hence every candidate pair) must agree.
        assert {frozenset(b) for b in new.blocks} == {
            frozenset(b) for b in legacy.blocks
        }
        assert new.num_multiset_comparisons == legacy.num_multiset_comparisons
