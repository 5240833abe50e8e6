"""Persistent shard pool: reuse determinism and slab transport
(DESIGN.md, "Persistent shard pool").

The pool carries the pooled signature map across calls: repeated
``block()``/``block_stream()`` calls on one warm pool — and interleaved
blockers sharing it — must produce byte-identical blocks, equal to the
serial engine for any pool size; a closed pool must fail loudly with
:class:`~repro.errors.ConfigurationError` instead of silently
re-forking.
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
from repro.minhash import GrowableSignatureSpill
from repro.records import Dataset
from repro.semantic import VoterSemanticFunction
from repro.utils.parallel import ShardPool, _available_cpus, resolve_processes

VOTER_ATTRS = ("first_name", "last_name")


def _double(x):
    return 2 * x


def _sum_and_scale(payload):
    array, factor = payload
    return float(array.sum()), array * factor


def _scale_or_raise(payload):
    array, should_raise = payload
    if should_raise:
        raise ValueError("bad payload")
    return array * 2


def _lsh(**kw):
    return LSHBlocker(VOTER_ATTRS, q=2, k=4, l=6, seed=3, **kw)


def _salsh(**kw):
    return SALSHBlocker(
        VOTER_ATTRS, q=2, k=4, l=6, seed=3,
        semantic_function=VoterSemanticFunction(), w=2, mode="or", **kw,
    )


class TestPoolPrimitives:
    def test_map_matches_serial(self):
        payloads = list(range(17))
        with ShardPool(2) as pool:
            assert pool.map(_double, payloads) == [2 * x for x in payloads]
        with ShardPool(1) as serial:
            assert serial.map(_double, payloads) == [2 * x for x in payloads]

    def test_map_empty_and_single(self):
        with ShardPool(3) as pool:
            assert pool.map(_double, []) == []
            assert pool.map(_double, [21]) == [42]

    def test_serial_pool_runs_in_process(self):
        # processes=1 never forks: identity of mutated state proves it.
        with ShardPool(1) as pool:
            box: list[int] = []
            assert pool.map(box.append, [1, 2]) == [None, None]
            assert box == [1, 2]

    def test_slab_transport_round_trip(self):
        # Arrays above the slab threshold ride shared-memory files and
        # come back value-identical (as read-only maps).
        big = np.arange(20_000, dtype=np.uint64).reshape(100, 200)
        payloads = [(big, 2), (big[:50], 3)]
        serial = [_sum_and_scale(p) for p in payloads]
        with ShardPool(2) as pool:
            pooled = pool.map(_sum_and_scale, payloads)
        for (serial_sum, serial_array), (pool_sum, pool_array) in zip(
            serial, pooled
        ):
            assert serial_sum == pool_sum
            assert np.array_equal(np.asarray(pool_array), serial_array)

    def test_failed_map_cleans_slab_dir(self):
        # A map where one task raises must propagate the error AND
        # unlink the completed tasks' result slab files — a long-lived
        # pool must not strand tmpfs files on failures.
        import os

        big = np.arange(20_000, dtype=np.uint64).reshape(100, 200)
        with ShardPool(2) as pool:
            with pytest.raises(ValueError, match="bad payload"):
                pool.map(
                    _scale_or_raise, [(big, False), (big, True), (big, False)]
                )
            assert os.listdir(pool._slab_dir) == []
            # The pool stays usable after a failed map.
            ok = pool.map(_scale_or_raise, [(big, False), (big, False)])
            assert all(np.array_equal(np.asarray(r), big * 2) for r in ok)

    def test_unpicklable_payload_cleans_slab_dir(self):
        # A payload that fails to pickle AFTER an earlier payload's
        # array was parked must still leave the slab dir empty.
        import os

        big = np.arange(20_000, dtype=np.uint64).reshape(100, 200)
        with ShardPool(2) as pool:
            with pytest.raises(Exception):
                pool.map(_sum_and_scale, [(big, 2), (big, lambda x: x)])
            assert os.listdir(pool._slab_dir) == []

    def test_dead_corpus_releases_interned_files(self, voter_small):
        import gc
        import os

        with ShardPool(2) as pool:
            corpus = list(voter_small)[:50]

            class Source:  # weakref-able anchor for the slabs
                pass

            source = Source()
            pool.intern_slabs(source, 2, [corpus[:25], corpus[25:]])
            assert any(
                name.startswith("intern-")
                for name in os.listdir(pool._slab_dir)
            )
            del source
            gc.collect()
            assert not any(
                name.startswith("intern-")
                for name in os.listdir(pool._slab_dir)
            )

    def test_closed_pool_raises(self):
        pool = ShardPool(2)
        pool.close()
        assert pool.closed
        with pytest.raises(ConfigurationError, match="closed"):
            pool.map(_double, [1, 2])
        pool.close()  # idempotent

    def test_memo_capacity_bounded(self, voter_small):
        # Identity-keyed memo writers (e.g. a semantic function rebuilt
        # per call) must not grow the per-source memo unboundedly.
        with ShardPool(2) as pool:
            for i in range(20):
                pool.set_memo(voter_small, ("key", i), i)
            assert pool.get_memo(voter_small, ("key", 0)) is None  # evicted
            assert pool.get_memo(voter_small, ("key", 19)) == 19

    def test_interned_slab_lookup(self, voter_small):
        with ShardPool(2) as pool:
            assert pool.get_interned_slabs(voter_small, 2) is None
            refs = pool.intern_slabs(voter_small, 2, [[1, 2], [3]])
            assert pool.get_interned_slabs(voter_small, 2) == refs
            assert pool.get_interned_slabs(voter_small, 3) is None
        with ShardPool(1) as serial:
            # Serial pools neither intern nor report cached slabs.
            assert serial.intern_slabs(voter_small, 1, [[1]]) == [[1]]
            assert serial.get_interned_slabs(voter_small, 1) is None

    def test_resolve_respects_cpu_budget(self):
        # None defaults must track the usable-CPU count (cgroup/affinity
        # aware), not blindly the machine's cpu_count.
        assert resolve_processes(None) == _available_cpus()
        assert _available_cpus() >= 1


class TestPoolReuseDeterminism:
    def test_repeated_block_calls_identical(self, voter_small):
        serial = _lsh().block(voter_small)
        with ShardPool(2) as pool:
            first = _lsh(pool=pool).block(voter_small)
            second = _lsh(pool=pool).block(voter_small)
        assert first.blocks == serial.blocks
        assert second.blocks == serial.blocks
        assert first.metadata["pooled"] is True

    @pytest.mark.parametrize("pool_size", [1, 2, 3])
    def test_any_pool_size_matches_serial(self, voter_small, pool_size):
        serial = _lsh().block(voter_small)
        with ShardPool(pool_size) as pool:
            assert _lsh(pool=pool).block(voter_small).blocks == serial.blocks

    def test_interleaved_blockers_share_one_pool(self, voter_small):
        lsh_serial = _lsh().block(voter_small)
        salsh_serial = _salsh().block(voter_small)
        with ShardPool(2) as pool:
            lsh_first = _lsh(pool=pool).block(voter_small)
            salsh_pooled = _salsh(pool=pool).block(voter_small)
            lsh_second = _lsh(pool=pool).block(voter_small)
        assert lsh_first.blocks == lsh_second.blocks == lsh_serial.blocks
        assert salsh_pooled.blocks == salsh_serial.blocks
        assert salsh_pooled.metadata["engine"] == "sharded"

    def test_variant_blockers_on_pool(self, voter_small):
        for make in (
            lambda **kw: MultiProbeLSHBlocker(
                VOTER_ATTRS, q=2, k=3, l=4, seed=5, **kw
            ),
            lambda **kw: LSHForestBlocker(
                VOTER_ATTRS, q=2, k=4, l=3, seed=5, max_block_size=10, **kw
            ),
        ):
            serial = make().block(voter_small)
            with ShardPool(2) as pool:
                assert make(pool=pool).block(voter_small).blocks == serial.blocks

    def test_salsh_semantic_memo_on_pool(self, voter_small):
        # Warm repeat calls reuse the pool's memoised encoder/semhash
        # state (pure functions of sf + corpus); a different semantic
        # function object or corpus must miss the memo. Blocks stay
        # identical throughout.
        sf1, sf2 = VoterSemanticFunction(), VoterSemanticFunction()
        mk = lambda sf, **kw: SALSHBlocker(
            VOTER_ATTRS, q=2, k=4, l=6, seed=3,
            semantic_function=sf, w=2, mode="or", **kw,
        )
        serial = mk(sf1).block(voter_small)
        with ShardPool(2) as pool:
            miss = mk(sf1, pool=pool).block(voter_small)
            assert pool.get_memo(
                voter_small, ("salsh-semantic", sf1)
            ) is not None
            assert pool.get_memo(
                voter_small, ("salsh-semantic", sf2)
            ) is None
            hit = mk(sf1, pool=pool).block(voter_small)
            other_sf = mk(sf2, pool=pool).block(voter_small)
        assert miss.blocks == hit.blocks == serial.blocks
        assert other_sf.blocks == serial.blocks
        bits = serial.metadata["num_semantic_bits"]
        assert miss.metadata["num_semantic_bits"] == bits
        assert hit.metadata["num_semantic_bits"] == bits
        # The memoised call reports no semantic-function rebuild time.
        assert hit.metadata["sf_seconds"] == 0.0
        assert miss.metadata["sf_seconds"] > 0.0

    def test_block_stream_on_pool(self, tmp_path, voter_small):
        serial = _lsh().block(voter_small)
        records = list(voter_small)
        slabs = [records[i : i + 111] for i in range(0, len(records), 111)]
        with ShardPool(2) as pool:
            blocker = _lsh(pool=pool)
            first = blocker.block_stream(iter(slabs))
            spill = GrowableSignatureSpill(tmp_path / "pooled.npy", 4 * 6)
            second = blocker.block_stream(iter(slabs), signatures_out=spill)
            spill.finalize()
        assert first.blocks == serial.blocks
        assert second.blocks == serial.blocks
        # Streaming groups in the calling process; the pool sits idle.
        assert first.metadata["pooled"] is False
        assert first.metadata["processes"] == 1

    def test_pipeline_on_pool(self, voter_small):
        serial = run_pipeline(
            voter_small,
            PipelineConfig(attributes=VOTER_ATTRS, q=2),
            VoterSemanticFunction(),
        )
        with ShardPool(2) as pool:
            pooled = run_pipeline(
                voter_small,
                PipelineConfig(attributes=VOTER_ATTRS, q=2, pool=pool),
                VoterSemanticFunction(),
            )
        assert pooled.outcome.result.blocks == serial.outcome.result.blocks

    def test_pool_shutdown_mid_pipeline_raises(self, voter_small):
        pool = ShardPool(2)
        blocker = _lsh(pool=pool)
        assert blocker.block(voter_small).blocks  # pool is live
        pool.close()
        with pytest.raises(ConfigurationError, match="closed"):
            blocker.block(voter_small)


class TestEmptyCorpus:
    """``record_slabs([], n)`` yields zero payloads; every blocker must
    degrade to empty blocks, not crash — on a cold and a warm pool
    alike."""

    def _makers(self):
        sf = VoterSemanticFunction()
        return [
            lambda **kw: LSHBlocker(("a",), q=2, k=3, l=5, **kw),
            lambda **kw: SALSHBlocker(
                ("a",), q=2, k=3, l=5, semantic_function=sf, **kw
            ),
            lambda **kw: MultiProbeLSHBlocker(("a",), q=2, k=3, l=5, **kw),
            lambda **kw: LSHForestBlocker(("a",), q=2, k=3, l=5, **kw),
        ]

    def test_empty_blocks_sharded(self):
        empty = Dataset([])
        with ShardPool(2) as pool:
            # A pool that has never mapped: no executor forked yet.
            for make in self._makers():
                assert make().block(empty).blocks == ()
                assert make(pool=pool).block(empty).blocks == ()

    def test_empty_blocks_on_warm_pool(self, voter_small):
        empty = Dataset([])
        with ShardPool(2) as pool:
            # Warm the pool first so the empty-corpus path hits a live
            # executor, not a lazily unforked one.
            assert _lsh(pool=pool).block(voter_small).blocks
            for make in self._makers():
                assert make(pool=pool).block(empty).blocks == ()
