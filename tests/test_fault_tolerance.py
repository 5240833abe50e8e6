"""Fault tolerance of the parallel runtime (DESIGN.md, "Fault
tolerance & the degradation ladder").

The central claim under test: for every injected fault — a killed
worker, a silently truncated slab, a full slab directory, a hung task
— a pooled blocking run produces blocks *byte-identical* to the serial
engine, the pool stays usable afterwards, and no files are stranded in
the slab directory. The deterministic :class:`~repro.utils.faults.
FaultPlan` harness makes each scenario replayable; the satellites
(broken-executor surfacing, orphan-dir sweep, spill salvage, resolver
error isolation) ride on the same machinery.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings

import numpy as np
import pytest

from repro.core import (
    LSHBlocker,
    LSHForestBlocker,
    MultiProbeLSHBlocker,
    SALSHBlocker,
)
from repro.er import Resolver
from repro.errors import (
    ConfigurationError,
    PoolBrokenError,
    SlabTransportError,
    TransientRuntimeError,
)
from repro.minhash import GrowableSignatureSpill
from repro.minhash.signature import validate_spill
from repro.records import Record
from repro.semantic import PatternSemanticFunction, cora_patterns
from repro.taxonomy.builders import bibliographic_tree
from repro.utils import faults, parallel
from repro.utils.faults import FaultPlan
from repro.utils.parallel import (
    ShardPool,
    _SLAB_DIR_PREFIX,
    _validate_slab,
    set_slab_integrity,
    slab_integrity_enabled,
)
from repro.utils.retry import NO_RETRY, RetryPolicy, as_retry_policy

CORA_ATTRS = ("authors", "title")
FIG1_ATTRS = ("title", "authors")

#: One spec per fault kind of the matrix. ``pool.task_hang`` needs a
#: ``map_timeout`` to be reaped, carried alongside.
FAULT_SPECS = {
    "worker_kill": ({"pool.worker_kill": 1}, None),
    "slab_truncate": ({"slab.truncate": 1}, None),
    "enospc": ({"slab.enospc": 1}, None),
    "hang_timeout": ({"pool.task_hang": 1}, 3.0),
}

#: Zero-backoff policy so recovery tests never sleep.
FAST_RETRY = RetryPolicy(retries=2, backoff=0.0)


def _cora_blockers():
    sf = PatternSemanticFunction(bibliographic_tree(), cora_patterns())
    return {
        "lsh": lambda **kw: LSHBlocker(
            CORA_ATTRS, q=2, k=3, l=4, seed=3, **kw
        ),
        "salsh": lambda **kw: SALSHBlocker(
            CORA_ATTRS, q=2, k=3, l=4, seed=3,
            semantic_function=sf, w=2, mode="or", **kw,
        ),
        "mplsh": lambda **kw: MultiProbeLSHBlocker(
            CORA_ATTRS, q=2, k=3, l=4, seed=3, **kw
        ),
        "forest": lambda **kw: LSHForestBlocker(
            CORA_ATTRS, q=2, k=3, l=4, seed=3, max_block_size=20, **kw
        ),
    }


#: Serial baselines, computed once per (blocker, corpus) per session.
_serial_cache: dict = {}


def _serial_blocks(name, make, dataset):
    key = (name, id(dataset))
    if key not in _serial_cache:
        _serial_cache[key] = make().block(dataset).blocks
    return _serial_cache[key]


def _assert_no_stranded_files(pool):
    # Interned slabs legitimately persist for the corpus's lifetime;
    # everything else (payload/result slabs) must have been unlinked.
    for slab_dir in pool._slab_dirs:
        leftovers = [
            name for name in os.listdir(slab_dir)
            if not name.startswith("intern-")
        ]
        assert leftovers == [], f"stranded slab files: {leftovers}"


class TestFaultPlan:
    def test_count_rule_fires_first_n(self):
        plan = FaultPlan({"slab.enospc": 2})
        assert [plan.fires("slab.enospc") for _ in range(4)] == [
            True, True, False, False,
        ]
        assert plan.fired("slab.enospc") == 2
        assert plan.fired() == 2

    def test_indices_rule_fires_exactly_those(self):
        plan = FaultPlan({"slab.truncate": (1, 3)})
        assert [plan.fires("slab.truncate") for _ in range(5)] == [
            False, True, False, True, False,
        ]

    def test_probability_rule_is_seed_deterministic(self):
        schedule = [
            FaultPlan({"pool.worker_kill": 0.5}, seed=11).fires(
                "pool.worker_kill"
            )
            for _ in range(20)
        ]
        replay = [
            FaultPlan({"pool.worker_kill": 0.5}, seed=11).fires(
                "pool.worker_kill"
            )
            for _ in range(20)
        ]
        assert schedule == replay
        long_run = FaultPlan({"pool.worker_kill": 0.5}, seed=11)
        fired = [long_run.fires("pool.worker_kill") for _ in range(200)]
        assert any(fired) and not all(fired)

    def test_unknown_point_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown injection"):
            FaultPlan({"pool.meteor_strike": 1})

    def test_pid_binding_makes_plan_inert_elsewhere(self):
        plan = FaultPlan({"slab.enospc": 5})
        plan._pid = os.getpid() + 1  # simulate a forked child's view
        assert not plan.fires("slab.enospc")
        assert plan.fired() == 0

    def test_injected_context_arms_and_disarms(self):
        assert faults.active() is None
        with faults.injected({"slab.enospc": 1}) as plan:
            assert faults.active() is plan
            with pytest.raises(OSError):
                faults.maybe_fail("slab.enospc")
        assert faults.active() is None
        faults.maybe_fail("slab.enospc")  # disarmed: no-op

    def test_maybe_fail_truncate_corrupts_file(self, tmp_path):
        path = tmp_path / "victim.bin"
        path.write_bytes(b"x" * 1000)
        with faults.injected({"slab.truncate": 1}):
            faults.maybe_fail("slab.truncate", path=str(path))
        assert path.stat().st_size == 500

    def test_should_fire_consumes_schedule(self):
        with faults.injected({"pool.worker_kill": 1}):
            assert faults.should_fire("pool.worker_kill")
            assert not faults.should_fire("pool.worker_kill")
        assert not faults.should_fire("pool.worker_kill")


class TestRetryPolicy:
    def test_delay_doubles_and_caps(self):
        policy = RetryPolicy(retries=5, backoff=0.5, max_backoff=1.6)
        assert [policy.delay(i) for i in range(4)] == [0.5, 1.0, 1.6, 1.6]

    def test_pause_uses_injected_sleep(self):
        slept = []
        policy = RetryPolicy(retries=1, backoff=0.25, sleep=slept.append)
        policy.pause(0)
        policy.pause(1)
        assert slept == [0.25, 0.5]

    def test_as_retry_policy_normalisation(self):
        assert as_retry_policy(None) == RetryPolicy()
        assert as_retry_policy(0) is NO_RETRY
        assert as_retry_policy(3).retries == 3
        assert as_retry_policy(3).fallback_serial
        custom = RetryPolicy(retries=7)
        assert as_retry_policy(custom) is custom
        for bad in (True, 1.5, "twice"):
            with pytest.raises(ConfigurationError):
                as_retry_policy(bad)
        with pytest.raises(ConfigurationError):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff=-0.1)

    def test_no_retry_disables_ladder(self):
        assert NO_RETRY.retries == 0
        assert not NO_RETRY.fallback_serial

    def test_error_taxonomy(self):
        # The retry path keys on this hierarchy: slab failures are
        # transient, transient errors are library errors.
        assert issubclass(SlabTransportError, TransientRuntimeError)
        err = SlabTransportError("gone", path="/x", errno=28)
        assert (err.path, err.errno) == ("/x", 28)
        import pickle

        clone = pickle.loads(pickle.dumps(err))
        assert (clone.path, clone.errno) == ("/x", 28)


class TestSlabIntegrity:
    def test_footer_round_trip_and_corruption(self, tmp_path):
        from repro.utils.parallel import _write_blob_slab

        path = str(tmp_path / "blob.pkl")
        _write_blob_slab(path, b"payload-bytes", True)
        assert _validate_slab(path) == b"payload-bytes"
        # Truncation (even by one byte) must be caught.
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 1)
        with pytest.raises(SlabTransportError, match="footer|checksum"):
            _validate_slab(path)

    def test_missing_footer_rejected(self, tmp_path):
        path = tmp_path / "bare.pkl"
        path.write_bytes(b"no footer here, just bytes and padding!")
        with pytest.raises(SlabTransportError, match="footer"):
            _validate_slab(str(path))

    def test_array_slab_footer_is_np_load_compatible(self, tmp_path):
        from repro.utils.parallel import _ArraySlab, _write_array_slab

        path = str(tmp_path / "array.npy")
        array = np.arange(5000, dtype=np.uint64).reshape(100, 50)
        _write_array_slab(path, array, True)
        # Plain numpy ignores the trailing footer bytes...
        assert np.array_equal(np.load(path), array)
        # ...and the validating load sees them.
        assert np.array_equal(np.asarray(_ArraySlab(path).load(True)), array)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        with pytest.raises(SlabTransportError):
            _ArraySlab(path).load(True)

    def test_set_slab_integrity_round_trips(self):
        previous = set_slab_integrity(False)
        try:
            assert previous is True
            assert not slab_integrity_enabled()
        finally:
            set_slab_integrity(previous)
        assert slab_integrity_enabled()

    def test_pool_blocks_identical_with_integrity_off(self, fig1):
        # The resilience-overhead bench times this configuration; it
        # must stay output-identical, not just fast.
        blocker = lambda **kw: LSHBlocker(FIG1_ATTRS, q=2, k=2, l=4, **kw)
        serial = blocker().block(fig1).blocks
        previous = set_slab_integrity(False)
        try:
            with ShardPool(2) as pool:
                assert blocker(pool=pool).block(fig1).blocks == serial
        finally:
            set_slab_integrity(previous)


class TestSpillIntegrity:
    def test_closed_spill_validates(self, tmp_path):
        path = tmp_path / "spill.npy"
        with GrowableSignatureSpill(path, 8) as spill:
            spill.append(np.arange(24, dtype=np.uint64).reshape(3, 8))
        assert validate_spill(path, 8) == 3
        matrix = np.load(path)
        assert matrix.shape == (3, 8)

    def test_truncated_spill_rejected(self, tmp_path):
        path = tmp_path / "spill.npy"
        with GrowableSignatureSpill(path, 4) as spill:
            spill.append(np.arange(40, dtype=np.uint64).reshape(10, 4))
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 9)
        with pytest.raises(SlabTransportError, match="footer|rows"):
            validate_spill(path, 4)

    def test_finalize_validates_on_attach(self, tmp_path):
        spill = GrowableSignatureSpill(tmp_path / "spill.npy", 4)
        spill.append(np.arange(40, dtype=np.uint64).reshape(10, 4))
        spill.close()
        with open(spill.path, "r+b") as handle:
            handle.truncate(os.path.getsize(spill.path) - 16)  # drop footer
        with pytest.raises(SlabTransportError):
            spill.finalize()

    def test_append_write_error_salvages(self, tmp_path):
        # Satellite: an OSError mid-append must close-and-salvage the
        # rows already written and surface a typed, transient error.
        spill = GrowableSignatureSpill(tmp_path / "spill.npy", 4)
        spill.append(np.arange(20, dtype=np.uint64).reshape(5, 4))
        with faults.injected({"spill.write_error": 1}):
            with pytest.raises(SlabTransportError, match="salvaged"):
                spill.append(np.ones((2, 4), dtype=np.uint64))
        assert spill.finalized  # handle released, no leak
        with pytest.raises(ConfigurationError):
            spill.append(np.ones((1, 4), dtype=np.uint64))
        # The salvaged file is a valid, footered .npy of the 5 rows.
        assert validate_spill(spill.path, 4) == 5
        salvaged = np.load(spill.path)
        assert np.array_equal(
            salvaged, np.arange(20, dtype=np.uint64).reshape(5, 4)
        )


@pytest.mark.parametrize("fault_kind", sorted(FAULT_SPECS))
class TestFaultMatrix:
    """The tentpole equivalence claim, fault × blocker × corpus."""

    def test_blocks_identical_on_cora(self, cora_small, fault_kind):
        spec, map_timeout = FAULT_SPECS[fault_kind]
        for name, make in _cora_blockers().items():
            serial = _serial_blocks(name, make, cora_small)
            with ShardPool(
                2, retry=FAST_RETRY, map_timeout=map_timeout
            ) as pool:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    with faults.injected(spec, seed=13) as plan:
                        injected = make(pool=pool).block(cora_small)
                assert plan.fired() >= 1, (name, fault_kind)
                assert injected.blocks == serial, (name, fault_kind)
                # The pool must stay usable after recovery (disarmed).
                again = make(pool=pool).block(cora_small)
                assert again.blocks == serial, (name, fault_kind)
                _assert_no_stranded_files(pool)

    def test_blocks_identical_on_fig1(self, fig1, fig1_sf, fault_kind):
        spec, map_timeout = FAULT_SPECS[fault_kind]
        makers = {
            "lsh": lambda **kw: LSHBlocker(
                FIG1_ATTRS, q=2, k=2, l=4, seed=1, **kw
            ),
            "salsh": lambda **kw: SALSHBlocker(
                FIG1_ATTRS, q=2, k=2, l=4, seed=1,
                semantic_function=fig1_sf, w=2, mode="or", **kw,
            ),
        }
        for name, make in makers.items():
            serial = _serial_blocks(f"fig1-{name}", make, fig1)
            with ShardPool(
                2, retry=FAST_RETRY, map_timeout=map_timeout
            ) as pool:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    with faults.injected(spec, seed=13):
                        injected = make(pool=pool).block(fig1)
                assert injected.blocks == serial, (name, fault_kind)
                _assert_no_stranded_files(pool)


class TestRecoveryLadder:
    def test_enospc_switches_to_disk_fallback_once(self, cora_small):
        make = _cora_blockers()["lsh"]
        serial = _serial_blocks("lsh", make, cora_small)
        with ShardPool(2, retry=FAST_RETRY) as pool:
            with pytest.warns(RuntimeWarning, match="out of space"):
                with faults.injected({"slab.enospc": 1}):
                    blocks = make(pool=pool).block(cora_small).blocks
            assert blocks == serial
            assert pool.on_disk_fallback
            fallback_dir = pool._slab_dir
            assert fallback_dir != pool._slab_dirs[0]
            # The fallback is permanent for the pool's life, and the
            # switch (with its warning) happens only once.
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert make(pool=pool).block(cora_small).blocks == serial
            assert pool._slab_dir == fallback_dir
        # close() removes the fallback dir too.
        assert not os.path.isdir(fallback_dir)

    def test_serial_fallback_is_final_rung(self, cora_small):
        # Every attempt loses a worker; retries exhaust and the map
        # must degrade to serial in-process execution — same blocks.
        make = _cora_blockers()["lsh"]
        serial = _serial_blocks("lsh", make, cora_small)
        policy = RetryPolicy(retries=1, backoff=0.0)
        with ShardPool(2, retry=policy) as pool:
            with pytest.warns(RuntimeWarning, match="serially"):
                # Kill one worker per attempt of the first map (consults
                # 0 and 2 are the first payload of attempts 1 and 2):
                # initial + 1 retry both break, then the ladder's last
                # rung runs the leftovers serially.
                with faults.injected({"pool.worker_kill": (0, 2)}):
                    blocks = make(pool=pool).block(cora_small).blocks
            assert blocks == serial
            # Pool usable afterwards.
            assert make(pool=pool).block(cora_small).blocks == serial
            _assert_no_stranded_files(pool)

    def test_retry_zero_surfaces_pool_broken_error(self, cora_small):
        # Satellite: the pre-fault-tolerance executor-reuse bug. With
        # recovery disabled a killed worker must surface as
        # PoolBrokenError — and the pool must still be usable (the
        # broken executor was torn down, not reused).
        make = _cora_blockers()["lsh"]
        serial = _serial_blocks("lsh", make, cora_small)
        with ShardPool(2, retry=0) as pool:
            with faults.injected({"pool.worker_kill": 1}):
                with pytest.raises(PoolBrokenError):
                    make(pool=pool).block(cora_small)
            # The next map forks a fresh executor and succeeds.
            assert make(pool=pool).block(cora_small).blocks == serial
            _assert_no_stranded_files(pool)

    def test_timeout_reaps_hung_worker(self):
        with ShardPool(2, retry=0) as pool:
            with faults.injected({"pool.task_hang": 1}):
                with pytest.raises(PoolBrokenError, match="timeout"):
                    pool.map(_triple, [1, 2, 3], timeout=1.0)
            assert pool.map(_triple, [1, 2, 3]) == [3, 6, 9]

    def test_map_timeout_validation(self):
        with pytest.raises(ConfigurationError, match="map_timeout"):
            ShardPool(2, map_timeout=0)


class TestOrphanSweep:
    def test_stale_dirs_swept_live_dirs_kept(self, tmp_path, monkeypatch):
        # Satellite: a crashed owner leaks its slab dir forever; a new
        # pool's startup sweep must remove exactly the provably dead
        # ones.
        monkeypatch.setenv("REPRO_SHARDPOOL_DIR", str(tmp_path))
        worker = multiprocessing.Process(target=_noop)
        worker.start()
        worker.join()
        dead_pid = worker.pid
        assert dead_pid is not None
        stale = tmp_path / f"{_SLAB_DIR_PREFIX}{dead_pid}-stale"
        stale.mkdir()
        (stale / "slab-1-2.npy").write_bytes(b"junk")
        own = tmp_path / f"{_SLAB_DIR_PREFIX}{os.getpid()}-live"
        own.mkdir()
        legacy = tmp_path / f"{_SLAB_DIR_PREFIX}nopid"
        legacy.mkdir()
        unrelated = tmp_path / "unrelated-dir"
        unrelated.mkdir()
        with ShardPool(2) as pool:
            assert pool._slab_dir.startswith(str(tmp_path))
            assert not stale.exists()  # dead owner: swept
            assert own.exists()  # live owner (us): kept
            assert legacy.exists()  # unparsable pid: kept
            assert unrelated.exists()  # foreign name: kept

    def test_pool_dir_carries_owner_pid(self):
        with ShardPool(2) as pool:
            name = os.path.basename(pool._slab_dir)
            assert name.startswith(f"{_SLAB_DIR_PREFIX}{os.getpid()}-")


class TestMapProcessesDegradation:
    """A short-lived :class:`ShardPool` opened for one map: the pool's
    recovery ladder applies, and its slab directory never outlives the
    pool — success or failure. (The class is named for the per-call
    ``map_processes`` helper these cases first covered.)"""

    @pytest.fixture
    def slab_parent(self, tmp_path, monkeypatch):
        parent = tmp_path / "slabs"
        parent.mkdir()
        monkeypatch.setenv("REPRO_SHARDPOOL_DIR", str(parent))
        return parent

    @staticmethod
    def _pool_dirs(parent):
        return [n for n in os.listdir(parent) if n.startswith(_SLAB_DIR_PREFIX)]

    def test_fresh_pool_broken_completes_serially(self, tmp_path, slab_parent):
        # A worker exit on a fresh pool's first map is retried.
        marker = str(tmp_path / "kill-once")
        payloads = [(1, marker), (2, None), (3, None), (4, None)]
        with ShardPool(2, retry=FAST_RETRY) as pool:
            results = pool.map(_exit_once, payloads)
        assert results == [3, 6, 9, 12]
        assert os.path.exists(marker)  # a worker really died
        assert self._pool_dirs(slab_parent) == []

    def test_genuine_errors_still_propagate(self, slab_parent):
        with pytest.raises(ValueError, match="boom"):
            with ShardPool(2) as pool:
                pool.map(_raise_on_negative, [1, -1, 2])
        assert self._pool_dirs(slab_parent) == []

    def test_ephemeral_pool_matches_serial(self, slab_parent):
        # Large arrays ride slab files and come back as memory maps, in
        # payload order; they stay readable after the pool removed its
        # directory.
        payloads = [np.arange(i, i + 20_000, dtype=np.uint64) for i in range(5)]
        with ShardPool(1) as serial_pool:
            serial = serial_pool.map(_triple, payloads)
        with ShardPool(2) as pool:
            pooled = pool.map(_triple, payloads)
        assert len(pooled) == len(serial) == 5
        for got, want in zip(pooled, serial):
            assert np.array_equal(got, want)
        assert self._pool_dirs(slab_parent) == []

    def test_ephemeral_pool_sized_to_payloads(self):
        # A map of one or no payloads, or on a one-process pool, runs
        # in this process and forks no executor; a larger map on a pool
        # with more processes than payloads still keeps order.
        with ShardPool(4) as pool:
            assert pool.map(_triple, [4]) == [12]
            assert pool.map(_triple, []) == []
            assert pool._executor is None
            assert pool.map(_triple, [1, 2, 3]) == [3, 6, 9]
            assert pool._executor is not None
        with ShardPool(1) as serial:
            assert serial.map(_triple, [1, 2]) == [3, 6]
            assert serial._executor is None


class TestResolverErrorIsolation:
    def _resolver(self, tiny_dataset):
        blocker = LSHBlocker(("title",), q=2, k=2, l=4, seed=1)
        return Resolver(blocker, tiny_dataset)

    def test_poisoned_probe_yields_error_tier(self, tiny_dataset):
        resolver = self._resolver(tiny_dataset)
        probes = [
            Record("q1", {"title": "alpha beta gamma"}),
            _PoisonRecord("q2"),
            Record("q3", {"title": "delta epsilon zeta"}),
        ]
        resolved = resolver.resolve_many(probes)
        assert [e.tier for e in resolved] != ["error"] * 3
        assert resolved[0].tier in ("match", "possible", "new")
        assert resolved[1].tier == "error"
        assert resolved[1].record_id == "q2"
        assert resolved[1].best_id is None
        assert resolved[1].candidates == ()
        assert "boom" in resolved[1].error
        assert resolved[2].tier in ("match", "possible", "new")
        # Clean probes resolve exactly as they would alone.
        alone = resolver.resolve_one(probes[0])
        assert resolved[0] == alone

    def test_fail_fast_opt_out(self, tiny_dataset):
        resolver = self._resolver(tiny_dataset)
        with pytest.raises(RuntimeError, match="boom"):
            resolver.resolve_many(
                [_PoisonRecord("q2")], isolate_errors=False
            )

    def test_error_entries_count_resolution(self, tiny_dataset):
        resolver = self._resolver(tiny_dataset)
        resolved = resolver.resolve_many([_PoisonRecord("qx")] * 3)
        assert all(e.tier == "error" for e in resolved)


class _PoisonRecord:
    """A probe whose attribute access explodes mid-resolution."""

    record_id = None

    def __init__(self, record_id):
        self.record_id = record_id

    def value(self, _attribute):
        raise RuntimeError("boom")

    def __getattr__(self, name):
        raise RuntimeError("boom")


def _noop():
    pass


def _triple(x):
    return 3 * x


def _raise_on_negative(x):
    if x < 0:
        raise ValueError("boom")
    return x


def _exit_once(payload):
    value, marker = payload
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)
    return value * 3
