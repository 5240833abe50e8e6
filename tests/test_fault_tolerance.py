"""Fault injection and the signature spill's integrity (DESIGN.md,
"Signature spill integrity").

The deterministic :class:`~repro.utils.faults.FaultPlan` harness makes
each failure replayable. The spill seals every closed file with a
footer that :func:`~repro.minhash.signature.validate_spill` checks, and
an injected write error mid-``append`` closes and salvages the rows
already written. A poisoned probe in ``resolve_many`` yields an error
tier instead of aborting the batch.
"""

from __future__ import annotations

import errno
import os
import pickle

import numpy as np
import pytest

from repro.core import LSHBlocker
from repro.er import Resolver
from repro.errors import (
    ConfigurationError,
    SlabTransportError,
    TransientRuntimeError,
)
from repro.minhash import GrowableSignatureSpill
from repro.minhash.signature import validate_spill
from repro.records import Record
from repro.utils import faults
from repro.utils.faults import FaultPlan


class TestFaultPlan:
    def test_count_rule_fires_first_n(self):
        plan = FaultPlan({"spill.write_error": 2})
        assert [plan.fires("spill.write_error") for _ in range(4)] == [
            True, True, False, False,
        ]

    def test_indices_rule_fires_exactly_those(self):
        plan = FaultPlan({"wal.append": (1, 3)})
        assert [plan.fires("wal.append") for _ in range(5)] == [
            False, True, False, True, False,
        ]

    def test_unknown_point_rejected(self):
        # The removed process pool's points are unknown too.
        for point in ("pool.meteor_strike", "pool.worker_kill", "slab.truncate"):
            with pytest.raises(ConfigurationError, match="unknown injection"):
                FaultPlan({point: 1})

    def test_injected_context_arms_and_disarms(self):
        assert faults.active() is None
        with faults.injected({"spill.write_error": 1}) as plan:
            assert faults.active() is plan
            with pytest.raises(OSError):
                faults.maybe_fail("spill.write_error")
        assert faults.active() is None
        faults.maybe_fail("spill.write_error")  # disarmed: no-op

    def test_maybe_fail_raises_enospc(self):
        with faults.injected({"spill.write_error": (1,)}):
            faults.maybe_fail("spill.write_error")  # index 0: no fire
            with pytest.raises(OSError) as raised:
                faults.maybe_fail("spill.write_error")
        assert raised.value.errno == errno.ENOSPC

    def test_should_fire_consumes_schedule(self):
        with faults.injected({"wal.append": 1}):
            assert faults.should_fire("wal.append")
            assert not faults.should_fire("wal.append")
        assert not faults.should_fire("wal.append")


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

    def test_error_taxonomy(self):
        # Spill failures are transient library errors, and they keep
        # their path and errno through a pickle round trip.
        assert issubclass(SlabTransportError, TransientRuntimeError)
        err = SlabTransportError("gone", path="/x", errno=28)
        assert (err.path, err.errno) == ("/x", 28)
        clone = pickle.loads(pickle.dumps(err))
        assert (str(clone), clone.path, clone.errno) == ("gone", "/x", 28)


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
