"""Streamed SA-LSH: sample-frozen encoder + slab streaming (DESIGN.md,
"Sample-frozen semantic encoder").

The contract extends the PR 2 streaming guarantee to the semantic
blocker: with an encoder frozen from the full corpus,
``SALSHBlocker.block_stream`` must produce blocks byte-identical to
:meth:`block` for any slab layout (including slab=1 and a single slab
larger than the corpus), spilled or not. With an encoder fitted on
a small sample the bit set may shrink; recall must stay within
tolerance of the full-corpus configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SALSHBlocker
from repro.errors import ConfigurationError
from repro.evaluation import evaluate_blocks
from repro.minhash import GrowableSignatureSpill
from repro.semantic import (
    PatternSemanticFunction,
    SemhashEncoder,
    VoterSemanticFunction,
    cora_patterns,
    recommended_sample_size,
)
from repro.taxonomy.builders import bibliographic_tree

VOTER_ATTRS = ("first_name", "last_name")
CORA_ATTRS = ("authors", "title")

#: Allowed pair-completeness dip of a 10%-sample-frozen encoder vs the
#: full-corpus bit set (sample bit sets are subsets; a missing rare
#: concept can only drop gated collisions for records relying on it).
SAMPLE_PC_TOLERANCE = 0.05


def _slabs(records, size):
    return (records[i : i + size] for i in range(0, len(records), size))


def _cora_sf():
    return PatternSemanticFunction(bibliographic_tree(), cora_patterns())


def _cora_blocker(**kw):
    return SALSHBlocker(
        CORA_ATTRS, q=3, k=3, l=6, seed=3,
        semantic_function=_cora_sf(), w=2, mode="or", **kw,
    )


def _voter_blocker(**kw):
    return SALSHBlocker(
        VOTER_ATTRS, q=2, k=3, l=5, seed=3,
        semantic_function=VoterSemanticFunction(), w=2, mode="or", **kw,
    )


class TestFrozenEncoder:
    def test_fit_equals_constructor(self, voter_small):
        records = list(voter_small)
        fitted = SemhashEncoder.fit(VoterSemanticFunction(), records[:50])
        direct = SemhashEncoder(VoterSemanticFunction(), records[:50])
        assert fitted.bits == direct.bits

    def test_encoding_unseen_records_does_not_mutate(self, voter_small):
        records = list(voter_small)
        encoder = SemhashEncoder.fit(VoterSemanticFunction(), records[:20])
        bits_before = encoder.bits
        num_bits_before = encoder.num_bits
        matrix = encoder.signature_matrix(records[20:])
        assert matrix.shape == (len(records) - 20, num_bits_before)
        assert encoder.bits == bits_before
        assert encoder.num_bits == num_bits_before
        # Unseen leaves outside C are dropped, never appended.
        for record in records[20:40]:
            assert encoder.encode(record).shape == (num_bits_before,)

    def test_sample_bits_subset_of_full(self, cora_small):
        records = list(cora_small)
        full = SemhashEncoder(_cora_sf(), cora_small)
        sample = SemhashEncoder.fit(_cora_sf(), records[: len(records) // 10])
        assert set(sample.bits) <= set(full.bits)
        assert sample.num_bits < full.num_bits


class TestStreamedEqualsBatch:
    @pytest.mark.parametrize("slab_size", [1, 3, 100])
    def test_fig1_all_slab_sizes(self, fig1, fig1_sf, slab_size):
        # slab=1 streams record by record; slab=100 exceeds the 6-record
        # corpus, so the whole dataset arrives as one oversized slab.
        blocker = SALSHBlocker(
            ("title", "authors"), q=3, k=2, l=3, seed=1,
            semantic_function=fig1_sf, w="all", mode="or",
        )
        reference = blocker.block(fig1)
        encoder = SemhashEncoder(fig1_sf, fig1)
        streamed = blocker.block_stream(
            _slabs(list(fig1), slab_size), encoder=encoder
        )
        assert streamed.blocks == reference.blocks
        assert streamed.metadata["engine"] == "streaming"

    @pytest.mark.parametrize("slab_size", [37, 1000])
    def test_cora_slab_sizes(self, cora_small, slab_size):
        blocker = _cora_blocker()
        reference = blocker.block(cora_small)
        encoder = SemhashEncoder(_cora_sf(), cora_small)
        streamed = blocker.block_stream(
            _slabs(list(cora_small), slab_size), encoder=encoder
        )
        assert streamed.blocks == reference.blocks

    def test_voter_generator_with_growable_spill(self, tmp_path, voter_small):
        # A plain generator of slabs — nothing may call len() on it —
        # spilling through the growable file.
        blocker = _voter_blocker()
        reference = blocker.block(voter_small)
        spill = GrowableSignatureSpill(tmp_path / "salsh-grow.npy", 3 * 5)
        records = list(voter_small)
        streamed = blocker.block_stream(
            _slabs(records, 111),
            encoder=SemhashEncoder(VoterSemanticFunction(), voter_small),
            signatures_out=spill,
        )
        assert streamed.blocks == reference.blocks
        matrix = spill.finalize()
        corpus = blocker.shingler.shingle_corpus(voter_small)
        assert np.array_equal(
            np.asarray(matrix), blocker.hasher.signature_matrix(corpus)
        )


class TestSampleSizeRule:
    """The principled sample-size rule: m >= ln(1/delta) / p, floored
    and capped at the population (DESIGN.md)."""

    def test_size_formula(self):
        # Defaults p = delta = 0.01: ceil(ln(100) / 0.01) = 461,
        # independent of how large the population is.
        assert recommended_sample_size(100_000) == 461
        assert recommended_sample_size(10_000_000) == 461
        # Rarer concepts need proportionally more records.
        assert recommended_sample_size(100_000, min_frequency=0.001) == 4606
        # The floor wins when the formula asks for less...
        assert recommended_sample_size(100_000, min_frequency=0.05) == 256
        # ...and the population caps everything.
        assert recommended_sample_size(100) == 100
        assert recommended_sample_size(300) == 300
        assert recommended_sample_size(0) == 0

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            recommended_sample_size(10, min_frequency=0.0)
        with pytest.raises(ConfigurationError):
            recommended_sample_size(10, min_frequency=1.5)
        with pytest.raises(ConfigurationError):
            recommended_sample_size(10, miss_probability=1.0)
        with pytest.raises(ConfigurationError):
            recommended_sample_size(10, miss_probability=0.0)

    def test_fit_sampled_deterministic(self, voter_small):
        records = list(voter_small)
        first = SemhashEncoder.fit_sampled(
            VoterSemanticFunction(), records, seed=5
        )
        second = SemhashEncoder.fit_sampled(
            VoterSemanticFunction(), records, seed=5
        )
        assert first.bits == second.bits

    def test_small_population_uses_everything(self, cora_small):
        # 300 records < the 461 the rule asks for: the whole corpus is
        # the sample, so the frozen bit set equals the full encoder's.
        sampled = SemhashEncoder.fit_sampled(_cora_sf(), list(cora_small))
        full = SemhashEncoder(_cora_sf(), cora_small)
        assert sampled.bits == full.bits

    def test_sampled_recall_within_tolerance(self, voter_small):
        records = list(voter_small)
        blocker = _voter_blocker()
        full_metrics = evaluate_blocks(blocker.block(voter_small), voter_small)
        encoder = SemhashEncoder.fit_sampled(
            VoterSemanticFunction(), records, seed=1
        )
        streamed = blocker.block_stream(_slabs(records, 100), encoder=encoder)
        metrics = evaluate_blocks(streamed, voter_small)
        assert metrics.pc >= full_metrics.pc - SAMPLE_PC_TOLERANCE


class TestSampleFrozenRecall:
    def test_ten_percent_sample_within_tolerance(self, cora_small):
        records = list(cora_small)
        blocker = _cora_blocker()
        full_metrics = evaluate_blocks(blocker.block(cora_small), cora_small)
        sample = SemhashEncoder.fit(_cora_sf(), records[: len(records) // 10])
        streamed = blocker.block_stream(
            _slabs(records, 50), encoder=sample
        )
        sample_metrics = evaluate_blocks(streamed, cora_small)
        assert sample_metrics.pc >= full_metrics.pc - SAMPLE_PC_TOLERANCE

    def test_ten_percent_sample_voter(self, voter_small):
        records = list(voter_small)
        blocker = _voter_blocker()
        full_metrics = evaluate_blocks(blocker.block(voter_small), voter_small)
        sample = SemhashEncoder.fit(
            VoterSemanticFunction(), records[: len(records) // 10]
        )
        streamed = blocker.block_stream(_slabs(records, 100), encoder=sample)
        sample_metrics = evaluate_blocks(streamed, voter_small)
        assert sample_metrics.pc >= full_metrics.pc - SAMPLE_PC_TOLERANCE
