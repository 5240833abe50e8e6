"""Process-sharded runtime determinism (DESIGN.md, "Process-sharded
streaming runtime").

The contract extends the PR 2 guarantee to processes: neither the
process count, nor the record-slab layout, nor the band-key shard
assignment may change a single byte of the output — ``processes=2``
blocks must equal serial blocks exactly, for every LSH blocker and at
the index level (gated and ungated).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    LSHBlocker,
    LSHForestBlocker,
    MultiProbeLSHBlocker,
    SALSHBlocker,
)
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.errors import ConfigurationError
from repro.lsh.bands import split_bands_matrix
from repro.lsh.index import BandedLSHIndex
from repro.lsh.sharding import (
    fold_labels,
    record_slabs,
    semantic_signature_slabs,
    signature_slabs,
)
from repro.minhash import MinHasher, Shingler
from repro.semantic import SemhashEncoder, VoterSemanticFunction
from repro.semantic.hashing import WWaySemanticHashFamily
from repro.utils.parallel import ShardPool, map_processes, resolve_processes

VOTER_ATTRS = ("first_name", "last_name")


def _double(x):
    return 2 * x


class TestParallelPrimitives:
    def test_resolve_processes(self):
        assert resolve_processes(3) == 3
        assert resolve_processes(None) >= 1
        with pytest.raises(ConfigurationError):
            resolve_processes(0)

    def test_map_processes_order_and_equivalence(self):
        payloads = list(range(23))
        serial = map_processes(_double, payloads, processes=1)
        pooled = map_processes(_double, payloads, processes=2)
        assert serial == pooled == [2 * x for x in payloads]

    def test_map_processes_empty(self):
        assert map_processes(_double, [], processes=4) == []

    def test_record_slabs(self, fig1):
        records = list(fig1)
        slabs = record_slabs(records, 4)
        assert [r for slab in slabs for r in slab] == records
        # More slabs than records degrades to one record per slab.
        assert record_slabs(records, 100) == [[r] for r in records]
        with pytest.raises(ConfigurationError):
            record_slabs(records, 0)


class TestFoldLabels:
    def test_equal_labels_fold_equal(self):
        keys = np.array([b"aaaaaaaa", b"bbbbbbbb", b"aaaaaaaa"], dtype="S8")
        folded = fold_labels(keys)
        assert folded[0] == folded[2]
        assert folded[0] != folded[1]

    def test_int_labels(self):
        labels = np.array([-3, 7, -3, 0], dtype=np.int64)
        folded = fold_labels(labels)
        assert folded[0] == folded[2]
        assert len(set(folded.tolist())) == 3

    def test_bad_width_rejected(self):
        with pytest.raises(ConfigurationError):
            fold_labels(np.array([b"abc"], dtype="S3"))


class TestShardedSignatureSlabs:
    def test_concatenation_matches_one_shot(self, voter_small):
        shingler = Shingler(VOTER_ATTRS, q=2)
        hasher = MinHasher(12, seed=9)
        expected = hasher.signature_matrix(shingler.shingle_corpus(voter_small))
        parts = signature_slabs(shingler, hasher, voter_small, processes=2)
        assert sum(len(p[0]) for p in parts) == len(voter_small)
        assert np.array_equal(np.concatenate([p[1] for p in parts]), expected)

    def test_semantic_slabs_ship_interpretations(self, voter_small):
        shingler = Shingler(VOTER_ATTRS, q=2)
        hasher = MinHasher(6, seed=2)
        sf = VoterSemanticFunction()
        parts = semantic_signature_slabs(
            shingler, hasher, sf, voter_small, processes=2
        )
        zetas = {
            rid: zeta
            for record_ids, _, slab_zetas in parts
            for rid, zeta in zip(record_ids, slab_zetas)
        }
        reference = SemhashEncoder(sf, voter_small)
        rebuilt = SemhashEncoder.from_interpretations(sf, zetas)
        assert rebuilt.bits == reference.bits


class TestShardedIndexGrouping:
    def _signatures(self, dataset, k=3, l=4):
        shingler = Shingler(VOTER_ATTRS, q=2)
        hasher = MinHasher(k * l, seed=2)
        corpus = shingler.shingle_corpus(dataset)
        return corpus.record_ids, hasher.signature_matrix(corpus), k, l

    def test_ungated_blocks_identical(self, voter_small):
        record_ids, signatures, k, l = self._signatures(voter_small)
        keys = split_bands_matrix(signatures, k, l)
        serial = BandedLSHIndex(l)
        serial.add_many(record_ids, keys)
        sharded = BandedLSHIndex(l, processes=2)
        sharded.add_many(record_ids, keys)
        assert sharded.blocks() == serial.blocks()
        assert sharded.bucket_sizes() == serial.bucket_sizes()

    @pytest.mark.parametrize("w,mode", [("all", "or"), (2, "and"), (3, "or")])
    def test_gated_blocks_identical(self, voter_small, w, mode):
        record_ids, signatures, k, l = self._signatures(voter_small)
        keys = split_bands_matrix(signatures, k, l)
        encoder = SemhashEncoder(VoterSemanticFunction(), voter_small)
        semhash = encoder.signature_matrix(voter_small)
        gates = WWaySemanticHashFamily(
            num_bits=encoder.num_bits, w=w, mode=mode, num_tables=l, seed=1
        )
        entries = [gates.gate_entries(t, semhash) for t in range(l)]
        serial = BandedLSHIndex(l)
        serial.add_many(record_ids, keys, gate_entries=entries)
        sharded = BandedLSHIndex(l, processes=3)
        sharded.add_many(record_ids, keys, gate_entries=entries)
        assert sharded.blocks() == serial.blocks()

    def test_multi_slab_sharded_identical(self, voter_small):
        record_ids, signatures, k, l = self._signatures(voter_small)
        keys = split_bands_matrix(signatures, k, l)
        serial = BandedLSHIndex(l)
        serial.add_many(record_ids, keys)
        sharded = BandedLSHIndex(l, processes=2)
        for lo, hi in ((0, 123), (123, 124), (124, len(record_ids))):
            sharded.add_many(record_ids[lo:hi], keys[lo:hi])
        assert sharded.blocks() == serial.blocks()


class TestShardedBlockersDeterministic:
    def test_lsh_processes_identical(self, voter_small):
        serial = LSHBlocker(VOTER_ATTRS, q=2, k=4, l=6, seed=3).block(voter_small)
        sharded = LSHBlocker(
            VOTER_ATTRS, q=2, k=4, l=6, seed=3, processes=2
        ).block(voter_small)
        assert sharded.blocks == serial.blocks
        assert sharded.metadata["processes"] == 2

    def test_salsh_processes_identical(self, voter_small):
        make = lambda **kw: SALSHBlocker(
            VOTER_ATTRS, q=2, k=4, l=6, seed=3,
            semantic_function=VoterSemanticFunction(), w=2, mode="or", **kw,
        )
        serial = make().block(voter_small)
        sharded = make(processes=2).block(voter_small)
        assert sharded.blocks == serial.blocks
        assert sharded.metadata["engine"] == "sharded"
        assert sharded.metadata["num_semantic_bits"] == (
            serial.metadata["num_semantic_bits"]
        )

    def test_salsh_fig1_processes_identical(self, fig1, fig1_sf):
        make = lambda **kw: SALSHBlocker(
            ("title", "authors"), q=3, k=2, l=3, seed=1,
            semantic_function=fig1_sf, w="all", mode="or", **kw,
        )
        assert make(processes=2).block(fig1).blocks == make().block(fig1).blocks

    def test_mplsh_processes_identical(self, voter_small):
        make = lambda **kw: MultiProbeLSHBlocker(
            VOTER_ATTRS, q=2, k=3, l=4, seed=5, **kw
        )
        assert (
            make(processes=2).block(voter_small).blocks
            == make().block(voter_small).blocks
        )

    def test_forest_processes_identical(self, voter_small):
        make = lambda **kw: LSHForestBlocker(
            VOTER_ATTRS, q=2, k=4, l=3, seed=5, max_block_size=10, **kw
        )
        assert (
            make(processes=2).block(voter_small).blocks
            == make().block(voter_small).blocks
        )

    def test_empty_dataset_all_blockers(self):
        # The sharded path has no slabs to concatenate on an empty
        # corpus; it must degrade to the serial result, not crash.
        from repro.records import Dataset

        empty = Dataset([])
        for make in (
            lambda **kw: LSHBlocker(("a",), q=2, k=3, l=5, **kw),
            lambda **kw: MultiProbeLSHBlocker(("a",), q=2, k=3, l=5, **kw),
            lambda **kw: LSHForestBlocker(("a",), q=2, k=3, l=5, **kw),
        ):
            assert make(processes=2).block(empty).blocks == (
                make().block(empty).blocks
            )

    def test_workers_compose_with_processes(self, voter_small):
        # A pool's worker count wins over the blocker's processes= (it
        # lays out the slabs and shards); blocks stay serial-identical.
        serial = LSHBlocker(VOTER_ATTRS, q=2, k=4, l=6, seed=3).block(voter_small)
        with ShardPool(3) as pool:
            combined = LSHBlocker(
                VOTER_ATTRS, q=2, k=4, l=6, seed=3, processes=2, pool=pool
            ).block(voter_small)
        assert combined.blocks == serial.blocks

    def test_streamed_sharded_identical(self, voter_small):
        # processes= also applies to the streaming path's grouping.
        records = list(voter_small)
        slabs = [records[i : i + 111] for i in range(0, len(records), 111)]
        serial = LSHBlocker(VOTER_ATTRS, q=2, k=4, l=6, seed=3).block(voter_small)
        streamed = LSHBlocker(
            VOTER_ATTRS, q=2, k=4, l=6, seed=3, processes=2
        ).block_stream(slabs)
        assert streamed.blocks == serial.blocks

    def test_pipeline_processes_identical(self, voter_small):
        serial = run_pipeline(
            voter_small,
            PipelineConfig(attributes=VOTER_ATTRS, q=2),
            VoterSemanticFunction(),
        )
        sharded = run_pipeline(
            voter_small,
            PipelineConfig(attributes=VOTER_ATTRS, q=2, processes=2),
            VoterSemanticFunction(),
        )
        assert sharded.outcome.result.blocks == serial.outcome.result.blocks
