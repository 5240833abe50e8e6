"""Pooled signature map determinism (DESIGN.md, "Process-level
sharding").

The contract: neither the pool's process count nor the record-slab
layout may change a single byte of the output — ``block()`` on a
``ShardPool(2)`` must equal serial blocks exactly, for every LSH
blocker. Only ``block()`` maps on the pool: streaming, linkage and the
online index run in the calling process.
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
from repro.er import Resolver
from repro.errors import ConfigurationError
from repro.lsh.bands import fold_labels
from repro.lsh.sharding import record_slabs, signature_slabs
from repro.minhash import MinHasher, Shingler
from repro.records import Dataset, LinkedCorpus
from repro.semantic import VoterSemanticFunction
from repro.utils.parallel import ShardPool, resolve_processes

VOTER_ATTRS = ("first_name", "last_name")


def _double(x):
    return 2 * x


@pytest.fixture(scope="module")
def pool():
    """One two-process pool shared by the module's blocking tests."""
    with ShardPool(2) as shared:
        yield shared


class TestParallelPrimitives:
    """``ShardPool.map`` and the slab layout. The ``test_map_processes_*``
    names are historic: they first covered the per-call
    ``map_processes`` helper."""

    def test_resolve_processes(self):
        assert resolve_processes(3) == 3
        assert resolve_processes(None) >= 1
        with pytest.raises(ConfigurationError):
            resolve_processes(0)

    def test_map_processes_order_and_equivalence(self):
        payloads = list(range(23))
        with ShardPool(1) as serial_pool, ShardPool(2) as parallel_pool:
            serial = serial_pool.map(_double, payloads)
            pooled = parallel_pool.map(_double, payloads)
        assert serial == pooled == [2 * x for x in payloads]

    def test_map_processes_empty(self):
        with ShardPool(4) as empty_pool:
            assert empty_pool.map(_double, []) == []

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
    def test_concatenation_matches_one_shot(self, voter_small, pool):
        shingler = Shingler(VOTER_ATTRS, q=2)
        hasher = MinHasher(12, seed=9)
        expected = hasher.signature_matrix(shingler.shingle_corpus(voter_small))
        parts = signature_slabs(shingler, hasher, voter_small, pool)
        assert len(parts) == pool.processes
        assert sum(len(p[0]) for p in parts) == len(voter_small)
        assert np.array_equal(np.concatenate([p[1] for p in parts]), expected)


class TestShardedBlockersDeterministic:
    def test_lsh_processes_identical(self, voter_small, pool):
        serial = LSHBlocker(VOTER_ATTRS, q=2, k=4, l=6, seed=3).block(voter_small)
        sharded = LSHBlocker(
            VOTER_ATTRS, q=2, k=4, l=6, seed=3, pool=pool
        ).block(voter_small)
        assert sharded.blocks == serial.blocks
        assert sharded.metadata["processes"] == 2
        assert serial.metadata["processes"] == 1

    def test_salsh_processes_identical(self, voter_small, pool):
        make = lambda **kw: SALSHBlocker(
            VOTER_ATTRS, q=2, k=4, l=6, seed=3,
            semantic_function=VoterSemanticFunction(), w=2, mode="or", **kw,
        )
        serial = make().block(voter_small)
        sharded = make(pool=pool).block(voter_small)
        assert sharded.blocks == serial.blocks
        assert sharded.metadata["engine"] == "sharded"
        assert sharded.metadata["num_semantic_bits"] == (
            serial.metadata["num_semantic_bits"]
        )

    def test_salsh_fig1_processes_identical(self, fig1, fig1_sf, pool):
        make = lambda **kw: SALSHBlocker(
            ("title", "authors"), q=3, k=2, l=3, seed=1,
            semantic_function=fig1_sf, w="all", mode="or", **kw,
        )
        assert make(pool=pool).block(fig1).blocks == make().block(fig1).blocks

    def test_mplsh_processes_identical(self, voter_small, pool):
        make = lambda **kw: MultiProbeLSHBlocker(
            VOTER_ATTRS, q=2, k=3, l=4, seed=5, **kw
        )
        assert (
            make(pool=pool).block(voter_small).blocks
            == make().block(voter_small).blocks
        )

    def test_forest_processes_identical(self, voter_small, pool):
        make = lambda **kw: LSHForestBlocker(
            VOTER_ATTRS, q=2, k=4, l=3, seed=5, max_block_size=10, **kw
        )
        assert (
            make(pool=pool).block(voter_small).blocks
            == make().block(voter_small).blocks
        )

    def test_empty_dataset_all_blockers(self, pool):
        # The pooled path has no slabs to concatenate on an empty
        # corpus; it must degrade to the serial result, not crash.
        empty = Dataset([])
        for make in (
            lambda **kw: LSHBlocker(("a",), q=2, k=3, l=5, **kw),
            lambda **kw: MultiProbeLSHBlocker(("a",), q=2, k=3, l=5, **kw),
            lambda **kw: LSHForestBlocker(("a",), q=2, k=3, l=5, **kw),
        ):
            assert make(pool=pool).block(empty).blocks == (
                make().block(empty).blocks
            )

    def test_streamed_sharded_identical(self, voter_small, monkeypatch):
        # block_stream runs in the calling process even when the
        # blocker holds a pool: a map on it would raise.
        records = list(voter_small)
        slabs = [records[i : i + 111] for i in range(0, len(records), 111)]
        serial = LSHBlocker(VOTER_ATTRS, q=2, k=4, l=6, seed=3).block(voter_small)
        with ShardPool(2) as unused:
            monkeypatch.setattr(unused, "map", _no_map)
            streamed = LSHBlocker(
                VOTER_ATTRS, q=2, k=4, l=6, seed=3, pool=unused
            ).block_stream(slabs)
        assert streamed.blocks == serial.blocks

    @pytest.mark.parametrize("kind", ("lsh", "salsh"))
    def test_only_block_maps_on_the_pool(self, voter_small, kind, monkeypatch):
        # block_pair, the online index and the resolver built on it
        # never touch the blocker's pool.
        records = list(voter_small)
        linked = LinkedCorpus(
            Dataset(records[:100], name="src"), Dataset(records[100:], name="tgt")
        )
        extra = (
            {} if kind == "lsh"
            else dict(semantic_function=VoterSemanticFunction(), w=2)
        )
        cls = LSHBlocker if kind == "lsh" else SALSHBlocker
        make = lambda **kw: cls(VOTER_ATTRS, q=2, k=4, l=6, seed=3, **extra, **kw)
        serial = make()
        with ShardPool(2) as unused:
            monkeypatch.setattr(unused, "map", _no_map)
            pooled = make(pool=unused)
            paired = pooled.block_pair(linked)
            assert paired.blocks == serial.block_pair(linked).blocks
            assert paired.metadata["processes"] == 1
            assert paired.metadata["pooled"] is False
            online = pooled.online(records[:200])
            online.add_many(records[200:])
            assert online.blocks() == serial.block(voter_small).blocks
            probes = records[200:210]
            assert Resolver(pooled, records[:200]).resolve_many(probes) == (
                Resolver(serial, records[:200]).resolve_many(probes)
            )

    def test_pipeline_processes_identical(self, voter_small, pool):
        serial = run_pipeline(
            voter_small,
            PipelineConfig(attributes=VOTER_ATTRS, q=2),
            VoterSemanticFunction(),
        )
        sharded = run_pipeline(
            voter_small,
            PipelineConfig(attributes=VOTER_ATTRS, q=2, pool=pool),
            VoterSemanticFunction(),
        )
        assert sharded.outcome.result.blocks == serial.outcome.result.blocks
        assert sharded.outcome.result.metadata["engine"] == "sharded"


def _no_map(*_args, **_kwargs):
    raise AssertionError("only block() may map on the pool")
