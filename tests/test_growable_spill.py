"""Growable signature spill: append-to-file ``.npy`` for unknown-length
streams (DESIGN.md, "Growable signature spill")."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LSHBlocker
from repro.errors import ConfigurationError, SlabTransportError
from repro.minhash import GrowableSignatureSpill, MinHasher, Shingler
from repro.utils import faults

VOTER_ATTRS = ("first_name", "last_name")


class TestGrowableSpill:
    def test_append_finalize_round_trip(self, tmp_path, voter_small):
        shingler = Shingler(VOTER_ATTRS, q=2)
        hasher = MinHasher(12, seed=4)
        corpus = shingler.shingle_corpus(voter_small)
        expected = hasher.signature_matrix(corpus)

        spill = GrowableSignatureSpill(tmp_path / "grow.npy", 12)
        cursor = 0
        for size in (100, 1, 0, 250, 10_000):
            slab = expected[cursor : cursor + size]
            view = spill.append(slab)
            # Each append returns the file-backed bytes just written.
            assert np.array_equal(np.asarray(view), slab)
            cursor += slab.shape[0]
            if cursor >= expected.shape[0]:
                break
        assert spill.num_records == expected.shape[0]
        matrix = spill.finalize()
        assert spill.finalized
        assert np.array_equal(np.asarray(matrix), expected)
        # The finalized file is a plain .npy readable by a later process.
        assert np.array_equal(np.load(tmp_path / "grow.npy"), expected)

    def test_empty_stream_finalizes_to_zero_rows(self, tmp_path):
        spill = GrowableSignatureSpill(tmp_path / "empty.npy", 8)
        matrix = spill.finalize()
        assert matrix.shape == (0, 8)
        assert matrix.dtype == np.uint64
        assert np.load(tmp_path / "empty.npy").shape == (0, 8)

    def test_finalize_is_idempotent(self, tmp_path):
        spill = GrowableSignatureSpill(tmp_path / "twice.npy", 4)
        spill.append(np.arange(8, dtype=np.uint64).reshape(2, 4))
        first = spill.finalize()
        second = spill.finalize()
        assert np.array_equal(np.asarray(first), np.asarray(second))

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            GrowableSignatureSpill(tmp_path / "bad.npy", 0)
        spill = GrowableSignatureSpill(tmp_path / "v.npy", 4)
        with pytest.raises(ConfigurationError):
            spill.append(np.zeros((2, 5), dtype=np.uint64))
        with pytest.raises(ConfigurationError):
            spill.append(np.zeros((2, 4), dtype=np.int64))
        spill.finalize()
        with pytest.raises(ConfigurationError):
            spill.append(np.zeros((1, 4), dtype=np.uint64))
        # A growable spill is the one spill type the indexes take.
        blocker = LSHBlocker(VOTER_ATTRS, q=2, k=2, l=2, seed=0)
        with pytest.raises(ConfigurationError):
            blocker.online(signatures_out=np.zeros((10, 4), dtype=np.uint64))

    def test_reopen_after_salvaged_write_error(self, tmp_path):
        # A failed append salvages the rows before it; reopening the
        # salvaged file and appending the rest gives the same matrix as
        # a spill that never failed.
        slabs = [
            np.arange(lo, lo + 24, dtype=np.uint64).reshape(4, 6)
            for lo in range(0, 96, 24)
        ]
        clean = GrowableSignatureSpill(tmp_path / "clean.npy", 6)
        for slab in slabs:
            clean.append(slab)
        expected = np.asarray(clean.finalize())

        path = tmp_path / "faulted.npy"
        spill = GrowableSignatureSpill(path, 6)
        with faults.injected({"spill.write_error": (2,)}):
            spill.append(slabs[0])
            spill.append(slabs[1])
            with pytest.raises(SlabTransportError):
                spill.append(slabs[2])
        assert spill.finalized

        resumed = GrowableSignatureSpill.reopen(path, 6)
        assert resumed.num_records == 8
        resumed.append(slabs[2])
        resumed.append(slabs[3])
        assert np.array_equal(np.asarray(resumed.finalize()), expected)


class TestSpillLifecycle:
    def test_close_releases_handle_and_salvages_rows(self, tmp_path):
        spill = GrowableSignatureSpill(tmp_path / "closed.npy", 4)
        spill.append(np.arange(12, dtype=np.uint64).reshape(3, 4))
        spill.close()
        assert spill.finalized
        # The closed file is a valid .npy holding the appended rows.
        assert np.load(tmp_path / "closed.npy").shape == (3, 4)
        spill.close()  # idempotent
        assert spill.finalize().shape == (3, 4)

    def test_context_manager_closes(self, tmp_path):
        with GrowableSignatureSpill(tmp_path / "ctx.npy", 4) as spill:
            spill.append(np.zeros((2, 4), dtype=np.uint64))
        assert spill.finalized
        assert np.load(tmp_path / "ctx.npy").shape == (2, 4)

    def test_context_manager_closes_on_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with GrowableSignatureSpill(tmp_path / "err.npy", 4) as spill:
                spill.append(np.ones((1, 4), dtype=np.uint64))
                raise RuntimeError("stream died")
        assert spill.finalized
        assert np.load(tmp_path / "err.npy").shape == (1, 4)

    def test_aborted_block_stream_releases_spill(self, tmp_path, voter_small):
        # Regression: a stream aborting before finalize used to leak
        # the spill's open handle and leave a zero-row header.
        records = list(voter_small)
        blocker = LSHBlocker(VOTER_ATTRS, q=2, k=4, l=6, seed=11)
        spill = GrowableSignatureSpill(tmp_path / "abort.npy", 4 * 6)

        def aborting_stream():
            yield records[:100]
            raise RuntimeError("upstream died")

        with pytest.raises(RuntimeError):
            blocker.block_stream(aborting_stream(), signatures_out=spill)
        assert spill.finalized
        salvaged = np.load(tmp_path / "abort.npy", mmap_mode="r")
        assert salvaged.shape == (100, 4 * 6)

    def test_aborted_salsh_stream_releases_spill(self, tmp_path, voter_small):
        from repro.core import SALSHBlocker
        from repro.semantic import SemhashEncoder, VoterSemanticFunction

        records = list(voter_small)
        sf = VoterSemanticFunction()
        blocker = SALSHBlocker(
            VOTER_ATTRS, q=2, k=4, l=6, seed=11, semantic_function=sf
        )
        encoder = SemhashEncoder(sf, records[:100])
        spill = GrowableSignatureSpill(tmp_path / "abort-salsh.npy", 4 * 6)

        def aborting_stream():
            yield records[:50]
            raise RuntimeError("upstream died")

        with pytest.raises(RuntimeError):
            blocker.block_stream(
                aborting_stream(), encoder=encoder, signatures_out=spill
            )
        assert spill.finalized
        assert np.load(tmp_path / "abort-salsh.npy").shape == (50, 4 * 6)


class TestUnknownLengthStreams:
    def test_block_stream_plain_generator(self, tmp_path, voter_small):
        # End-to-end acceptance: a generator with no len(), spilled
        # through the growable file, blocks identical to block().
        blocker = LSHBlocker(VOTER_ATTRS, q=2, k=4, l=6, seed=11)
        reference = blocker.block(voter_small)
        records = list(voter_small)
        spill = GrowableSignatureSpill(tmp_path / "stream.npy", 4 * 6)

        def slab_generator():
            for lo in range(0, len(records), 103):
                yield iter(records[lo : lo + 103])

        streamed = blocker.block_stream(
            slab_generator(), signatures_out=spill
        )
        assert streamed.blocks == reference.blocks
        assert streamed.metadata["spilled"] is True
        assert spill.num_records == len(records)
        matrix = spill.finalize()
        corpus = blocker.shingler.shingle_corpus(voter_small)
        assert np.array_equal(
            np.asarray(matrix), blocker.hasher.signature_matrix(corpus)
        )

    def test_empty_generator_stream(self, tmp_path):
        blocker = LSHBlocker(VOTER_ATTRS, q=2, k=2, l=2, seed=0)
        spill = GrowableSignatureSpill(tmp_path / "none.npy", 4)
        result = blocker.block_stream(iter(()), signatures_out=spill)
        assert result.blocks == ()
        assert result.metadata["num_records"] == 0
        assert spill.finalize().shape == (0, 4)
