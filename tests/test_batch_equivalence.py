"""Batch-engine equivalence: the corpus-level vectorized signature path
must be byte-identical to the per-record reference path
(:mod:`repro.reference.blocking`).

Covers every layer of the batch engine (see DESIGN.md, "Batch signature
engine"): shingled corpora, minhash signature matrices (including the
runner-up form used by multi-probe LSH), band keys, semhash signatures
(dense and packed), and the final blocks of every blocker on Cora-like
and NC-Voter-like samples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LSHBlocker, SALSHBlocker
from repro.core.base import make_blocks
from repro.core.lsh_variants import (
    LSHForestBlocker,
    MultiProbeLSHBlocker,
    _MinHasherWithRunnerUp,
)
from repro.lsh.bands import split_bands, split_bands_matrix
from repro.lsh.index import BandedLSHIndex, grouped_indices
from repro.minhash import MinHasher, Shingler
from repro.minhash.corpus import ShingleVocabulary
from repro.minhash.minhash import (
    _PER_FUNCTION_STREAM,
    compact_vocabulary,
    sentinel_stream,
)
from repro.records import Dataset, Record
from repro.reference import banded_buckets, per_record_blocks
from repro.semantic import (
    SemhashEncoder,
    VoterSemanticFunction,
    pack_signatures,
    pairwise_jaccard_packed,
    semhash_jaccard,
    semhash_jaccard_packed,
    unpack_signatures,
)
from repro.utils.hashing import MERSENNE_PRIME_61


def title_dataset(titles: list[str]) -> Dataset:
    return Dataset(
        [Record(f"r{i}", {"title": t}) for i, t in enumerate(titles)]
    )


#: Hand-picked corpus exercising the awkward layouts: duplicates, an
#: empty record mid-stream, a single-shingle record, and a trailing
#: empty record (the reduceat edge cases).
EDGE_TITLES = [
    "alpha beta gamma",
    "alpha beta gamma",
    "",
    "x",
    "delta epsilon",
    "alpha bexa gamna",
    "",
]

#: Token-stream lengths (sentinel included) on both sides of the switch
#: from one multi-function chunk to one hash function at a time.
SWITCH_STREAMS = (_PER_FUNCTION_STREAM - 1, _PER_FUNCTION_STREAM)


def distinct_grams(count: int, offset: int = 0) -> str:
    """A title with exactly ``count`` distinct 2-grams.

    ``count + 1`` distinct CJK unified ideographs (the block
    U+4E00..U+9FFF, wrapping around) survive normalisation unchanged
    and never share a 2-gram with the Latin test titles.
    """
    if count == 0:
        return ""
    return "".join(
        chr(0x4E00 + (offset + i) % 0x5200) for i in range(count + 1)
    )


def token_titles(counts: list[int]) -> list[str]:
    """One title per entry of ``counts``, each with that many 2-grams.

    Titles overlap (offsets step by 7), so the rows share vocabulary.
    """
    return [distinct_grams(c, offset=7 * i) for i, c in enumerate(counts)]


def padded_to_stream(titles: list[str], stream: int | None) -> list[str]:
    """``titles`` behind one filler title that makes the token stream
    (sentinel included) exactly ``stream`` long; unchanged for None."""
    if stream is None:
        return titles
    corpus = Shingler(("title",), q=2).shingle_corpus(title_dataset(titles))
    filler = stream - 1 - corpus.num_tokens
    assert filler > 0
    return [distinct_grams(filler)] + titles


class TestShingledCorpus:
    def test_corpus_rows_match_per_record_ids(self, cora_small):
        shingler = Shingler(("authors", "title"), q=3)
        corpus = shingler.shingle_corpus(cora_small)
        assert corpus.record_ids == tuple(cora_small.record_ids)
        for row, record in enumerate(cora_small):
            batch_ids = np.sort(corpus.shingle_ids_of(row))
            legacy_ids = np.sort(shingler.shingle_ids(record))
            assert np.array_equal(batch_ids, legacy_ids)

    def test_vocabulary_is_interned(self):
        shingler = Shingler(("title",), q=2)
        corpus = shingler.shingle_corpus(title_dataset(["abab", "abab", "abxy"]))
        # 'ab', 'ba', 'bx', 'xy' — shared grams appear once in the vocab.
        assert corpus.vocab_size == 4
        assert corpus.num_tokens == 2 + 2 + 3

    def test_corpus_jaccard_matches_textual(self, voter_small):
        shingler = Shingler(("first_name", "last_name"), q=2)
        records = list(voter_small)[:60]
        corpus = shingler.shingle_corpus(records)
        for i in range(0, 50, 7):
            for j in range(1, 60, 11):
                expected = shingler.jaccard(records[i], records[j])
                assert corpus.jaccard(i, j) == pytest.approx(expected, abs=0)

    def test_empty_corpus(self):
        shingler = Shingler(("title",), q=2)
        corpus = shingler.shingle_corpus([])
        hasher = MinHasher(8, seed=0)
        assert corpus.num_records == 0
        assert hasher.signature_matrix(corpus).shape == (0, 8)


class TestSignatureMatrixEquivalence:
    def assert_equivalent(self, titles: list[str], num_hashes=16, seed=9, q=2):
        dataset = title_dataset(titles)
        shingler = Shingler(("title",), q=q)
        hasher = MinHasher(num_hashes, seed=seed)
        corpus = shingler.shingle_corpus(dataset)
        batch = hasher.signature_matrix(corpus)
        legacy = np.stack(
            [hasher.signature(shingler.shingle_ids(r)) for r in dataset]
        )
        assert np.array_equal(batch, legacy)

    def test_edge_layouts(self):
        self.assert_equivalent(EDGE_TITLES)

    def test_all_empty(self):
        self.assert_equivalent(["", "", ""])

    def test_chunking_is_invisible(self):
        dataset = title_dataset(EDGE_TITLES)
        shingler = Shingler(("title",), q=2)
        hasher = MinHasher(24, seed=3)
        corpus = shingler.shingle_corpus(dataset)
        full = hasher.signature_matrix(corpus)
        tiny_chunks = hasher.signature_matrix(corpus, chunk_elements=1)
        assert np.array_equal(full, tiny_chunks)

    def test_fixture_corpora(self, cora_small, voter_small):
        for dataset, attributes, q in (
            (cora_small, ("authors", "title"), 4),
            (voter_small, ("first_name", "last_name"), 2),
        ):
            shingler = Shingler(attributes, q=q)
            hasher = MinHasher(32, seed=42)
            corpus = shingler.shingle_corpus(dataset)
            batch = hasher.signature_matrix(corpus)
            for row in range(0, corpus.num_records, 37):
                legacy = hasher.signature(
                    shingler.shingle_ids(dataset[corpus.record_ids[row]])
                )
                assert np.array_equal(batch[row], legacy)

    @settings(max_examples=40, deadline=None)
    @given(
        titles=st.lists(
            st.text(alphabet="abcdef ", max_size=12), min_size=1, max_size=12
        ),
        num_hashes=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=5),
        # None keeps the titles' own short stream; the integers pad it
        # to either side of the layout switch.
        stream=st.one_of(
            st.none(),
            st.integers(_PER_FUNCTION_STREAM - 2, _PER_FUNCTION_STREAM + 1),
        ),
    )
    def test_property_random_corpora(self, titles, num_hashes, seed, stream):
        self.assert_equivalent(
            padded_to_stream(titles, stream), num_hashes=num_hashes, seed=seed
        )

    @settings(max_examples=25, deadline=None)
    @given(
        titles=st.lists(
            st.text(alphabet="abcd ", max_size=10), min_size=1, max_size=10
        ),
        seed=st.integers(min_value=0, max_value=3),
        stream=st.one_of(
            st.none(),
            st.integers(_PER_FUNCTION_STREAM - 2, _PER_FUNCTION_STREAM + 1),
        ),
    )
    def test_property_runner_up(self, titles, seed, stream):
        dataset = title_dataset(padded_to_stream(titles, stream))
        shingler = Shingler(("title",), q=2)
        hasher = _MinHasherWithRunnerUp(num_hashes=12, seed=seed)
        corpus = shingler.shingle_corpus(dataset)
        batch_min, batch_run = hasher.signature_matrix_with_runner_up(corpus)
        for row, record in enumerate(dataset):
            legacy_min, legacy_run = hasher.signature_with_runner_up(
                shingler.shingle_ids(record)
            )
            assert np.array_equal(batch_min[row], legacy_min)
            assert np.array_equal(batch_run[row], legacy_run)

    def test_runner_up_edge_layouts(self):
        dataset = title_dataset(EDGE_TITLES)
        shingler = Shingler(("title",), q=2)
        hasher = _MinHasherWithRunnerUp(num_hashes=16, seed=1)
        corpus = shingler.shingle_corpus(dataset)
        batch_min, batch_run = hasher.signature_matrix_with_runner_up(
            corpus, chunk_elements=1
        )
        for row, record in enumerate(dataset):
            legacy_min, legacy_run = hasher.signature_with_runner_up(
                shingler.shingle_ids(record)
            )
            assert np.array_equal(batch_min[row], legacy_min)
            assert np.array_equal(batch_run[row], legacy_run)


def assert_kernels_match_per_record(
    corpus, num_hashes: int = 12, seed: int = 4, chunk_elements: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Both batch kernels equal the per-record paths on every row.

    Returns the runner-up kernel's ``(minima, runners)``.
    """
    chunk = {} if chunk_elements is None else {"chunk_elements": chunk_elements}
    plain = MinHasher(num_hashes, seed=seed)
    probing = _MinHasherWithRunnerUp(num_hashes, seed=seed)
    batch = plain.signature_matrix(corpus, **chunk)
    minima, runners = probing.signature_matrix_with_runner_up(corpus, **chunk)
    for row in range(corpus.num_records):
        ids = corpus.shingle_ids_of(row)
        assert np.array_equal(batch[row], plain.signature(ids))
        legacy_min, legacy_run = probing.signature_with_runner_up(ids)
        assert np.array_equal(minima[row], legacy_min)
        assert np.array_equal(runners[row], legacy_run)
    assert np.array_equal(batch, minima)
    return minima, runners


def shingled(titles: list[str], vocabulary=None):
    return Shingler(("title",), q=2).shingle_corpus(
        title_dataset(titles), vocabulary=vocabulary
    )


class TestLayoutSwitch:
    """Both kernels on token streams just below and at the switch from
    one multi-function chunk to one hash function at a time."""

    @pytest.mark.parametrize("stream", SWITCH_STREAMS)
    def test_layout_follows_stream_length(self, stream):
        counts = [400] * ((stream - 1) // 400) + [(stream - 1) % 400]
        corpus = shingled(token_titles(counts))
        tokens_ext, _, _ = sentinel_stream(corpus)
        assert tokens_ext.shape[0] == stream
        hasher = MinHasher(12, seed=0)
        spans = [
            (lo, hi, [part.shape for part in parts])
            for lo, hi, parts in hasher.gathered_blocks(
                corpus.vocab_hashes, tokens_ext, 10**9
            )
        ]
        if stream < _PER_FUNCTION_STREAM:
            assert spans == [(0, 12, [(12, stream)])]
        else:
            assert spans == [(0, 12, [(stream,)] * 12)]

    @pytest.mark.parametrize("stream", SWITCH_STREAMS)
    @pytest.mark.parametrize("chunk_elements", [None, 1, 5 * 4096])
    def test_empty_first_middle_and_last_rows(self, stream, chunk_elements):
        body = stream - 1
        counts = [0, body // 3, 0, body // 3, 1, 0, body - 2 * (body // 3) - 1, 0]
        corpus = shingled(token_titles(counts))
        assert corpus.num_tokens + 1 == stream
        minima, runners = assert_kernels_match_per_record(
            corpus, chunk_elements=chunk_elements
        )
        sentinel = np.uint64(MERSENNE_PRIME_61)
        for row in (0, 2, 5, 7):
            assert (minima[row] == sentinel).all()
            assert (runners[row] == sentinel).all()

    def test_all_rows_empty(self):
        corpus = shingled([""] * (_PER_FUNCTION_STREAM + 1))
        minima, runners = assert_kernels_match_per_record(corpus)
        assert (minima == np.uint64(MERSENNE_PRIME_61)).all()
        assert (runners == np.uint64(MERSENNE_PRIME_61)).all()

    @pytest.mark.parametrize("stream", SWITCH_STREAMS)
    def test_single_token_rows(self, stream):
        # Offsets step by 7, so the one 2-gram per row repeats across
        # rows; every row's runner-up is its own minimum.
        corpus = shingled(token_titles([1] * (stream - 1)))
        assert corpus.num_tokens + 1 == stream
        minima, runners = assert_kernels_match_per_record(corpus)
        assert np.array_equal(minima, runners)

    @pytest.mark.parametrize("stream", SWITCH_STREAMS)
    def test_streamed_slab_with_compacted_vocabulary(self, stream):
        # The first slab grows the shared vocabulary past the second
        # slab's stream, so the second slab runs on a compacted one.
        vocabulary = ShingleVocabulary()
        shingled([distinct_grams(2 * stream, offset=20_000)], vocabulary)
        counts = [0] + [250] * ((stream - 1) // 250) + [(stream - 1) % 250, 0]
        corpus = shingled(token_titles(counts), vocabulary)
        tokens_ext, _, _ = sentinel_stream(corpus)
        assert tokens_ext.shape[0] == stream
        compacted, _ = compact_vocabulary(corpus, tokens_ext)
        assert compacted.shape[0] < corpus.vocab_size
        assert_kernels_match_per_record(corpus)
        # The signatures equal those of the same slab on its own.
        private = shingled(token_titles(counts))
        hasher = MinHasher(12, seed=4)
        assert np.array_equal(
            hasher.signature_matrix(corpus), hasher.signature_matrix(private)
        )


class TestBandKeyEquivalence:
    def test_matrix_keys_encode_split_bands(self):
        rng = np.random.default_rng(5)
        k, l, n = 3, 4, 20
        signatures = rng.integers(0, 1 << 61, size=(n, k * l), dtype=np.uint64)
        keys = split_bands_matrix(signatures, k, l)
        assert keys.shape == (n, l)
        for row in range(n):
            tuples = split_bands(signatures[row], k, l)
            for table in range(l):
                raw = keys[row, table].ljust(8 * k, b"\0")
                assert tuple(np.frombuffer(raw, dtype=np.uint64)) == tuples[table]

    def test_keys_collide_exactly_when_tuples_do(self):
        signatures = np.array(
            [[1, 2, 3, 4], [1, 2, 9, 9], [1, 2, 3, 4], [0, 2, 3, 4]],
            dtype=np.uint64,
        )
        keys = split_bands_matrix(signatures, k=2, l=2)
        assert keys[0, 0] == keys[1, 0] == keys[2, 0]
        assert keys[0, 0] != keys[3, 0]
        assert keys[0, 1] == keys[2, 1]
        assert keys[0, 1] != keys[1, 1]

    def test_wrong_shape_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            split_bands_matrix(np.zeros((3, 7), dtype=np.uint64), k=2, l=4)


class TestGroupedIndices:
    def test_matches_dict_insertion_order(self):
        labels = np.array([4, 1, 4, 2, 1, 4, 9])
        groups = grouped_indices(labels)
        as_lists = [g.tolist() for g in groups]
        assert as_lists == [[0, 2, 5], [1, 4], [3], [6]]

    def test_empty(self):
        assert grouped_indices(np.array([], dtype=np.int64)) == []

    def test_add_many_matches_looped_add(self, voter_small):
        shingler = Shingler(("first_name", "last_name"), q=2)
        hasher = MinHasher(12, seed=2)
        corpus = shingler.shingle_corpus(voter_small)
        signatures = hasher.signature_matrix(corpus)
        k, l = 3, 4

        looped = banded_buckets(
            l,
            (
                (rid, split_bands(signatures[row], k, l), None)
                for row, rid in enumerate(corpus.record_ids)
            ),
        )
        bulk = BandedLSHIndex(l)
        bulk.add_many(corpus.record_ids, split_bands_matrix(signatures, k, l))

        assert make_blocks(looped) == bulk.blocks()
        assert [len(bucket) for bucket in looped] == bulk.bucket_sizes()

    def test_add_many_shape_validation(self):
        index = BandedLSHIndex(2)
        with pytest.raises(ValueError):
            index.add_many(["a", "b"], np.zeros((2, 3), dtype=np.uint64))
        with pytest.raises(ValueError):
            index.add_many(
                ["a"], np.zeros((1, 2), dtype=np.uint64), gate_entries=[None]
            )


class TestSemhashEquivalence:
    @pytest.fixture(scope="class")
    def encoder(self, voter_small):
        return SemhashEncoder(VoterSemanticFunction(), voter_small)

    def test_matrix_matches_encode(self, encoder, voter_small):
        matrix = encoder.signature_matrix(voter_small)
        for row, record in enumerate(voter_small):
            assert np.array_equal(matrix[row], encoder.encode(record))

    def test_packed_roundtrip(self, encoder, voter_small):
        dense = encoder.signature_matrix(voter_small)
        packed = encoder.packed_signature_matrix(voter_small)
        assert np.array_equal(unpack_signatures(packed, encoder.num_bits), dense)

    def test_packed_jaccard_matches_dense(self, encoder, voter_small):
        dense = encoder.signature_matrix(voter_small)
        packed = pack_signatures(dense)
        rows = range(0, len(voter_small), 41)
        for i in rows:
            for j in rows:
                expected = semhash_jaccard(dense[i], dense[j])
                assert semhash_jaccard_packed(packed[i], packed[j]) == expected

    def test_pairwise_packed_matches_scalar(self, encoder, voter_small):
        dense = encoder.signature_matrix(voter_small)
        packed = pack_signatures(dense)
        rng = np.random.default_rng(0)
        left = rng.integers(0, len(voter_small), size=64)
        right = rng.integers(0, len(voter_small), size=64)
        batch = pairwise_jaccard_packed(packed[left], packed[right])
        for position, (i, j) in enumerate(zip(left, right)):
            assert batch[position] == semhash_jaccard(dense[i], dense[j])

    def test_all_zero_rows_yield_zero(self):
        packed = pack_signatures(
            np.array([[0, 0, 0], [1, 0, 1]], dtype=np.uint8)
        )
        assert semhash_jaccard_packed(packed[0], packed[1]) == 0.0
        assert pairwise_jaccard_packed(packed[:1], packed[1:])[0] == 0.0


def _blocker_grid(sf_voter):
    voter_attrs = ("first_name", "last_name")
    cora_attrs = ("authors", "title")
    return [
        ("cora", lambda **kw: LSHBlocker(cora_attrs, q=4, k=4, l=12, seed=42, **kw)),
        ("voter", lambda **kw: LSHBlocker(voter_attrs, q=2, k=9, l=15, seed=42, **kw)),
        (
            "voter",
            lambda **kw: SALSHBlocker(
                voter_attrs, q=2, k=9, l=15, seed=42,
                semantic_function=sf_voter, w="all", mode="or", **kw,
            ),
        ),
        (
            "voter",
            lambda **kw: SALSHBlocker(
                voter_attrs, q=2, k=9, l=15, seed=42,
                semantic_function=sf_voter, w=2, mode="and", **kw,
            ),
        ),
        (
            "cora",
            lambda **kw: MultiProbeLSHBlocker(
                cora_attrs, q=4, k=3, l=4, seed=42, num_probes=2, **kw
            ),
        ),
        (
            "cora",
            lambda **kw: LSHForestBlocker(
                cora_attrs, q=4, k=4, l=4, seed=42, max_block_size=8, **kw
            ),
        ),
    ]


class TestBlockerEquivalence:
    def test_batch_blocks_identical_to_per_record(self, cora_small, voter_small):
        datasets = {"cora": cora_small, "voter": voter_small}
        for dataset_name, make in _blocker_grid(VoterSemanticFunction()):
            dataset = datasets[dataset_name]
            batch = make().block(dataset)
            legacy = per_record_blocks(make(), dataset)
            label = f"{batch.blocker_name} on {dataset_name}"
            assert batch.blocks == legacy, label
            assert batch.metadata["engine"] == "batch"

    def test_blockers_handle_all_empty_records(self):
        dataset = Dataset(
            [Record(f"r{i}", {"title": ""}) for i in range(4)]
        )
        for make in (
            lambda **kw: LSHBlocker(("title",), q=2, k=2, l=3, seed=0, **kw),
            lambda **kw: MultiProbeLSHBlocker(("title",), q=2, k=2, l=3, seed=0, **kw),
            lambda **kw: LSHForestBlocker(("title",), q=2, k=2, l=3, seed=0, **kw),
        ):
            batch = make().block(dataset)
            legacy = per_record_blocks(make(), dataset)
            assert batch.blocks == legacy
            # All-empty records share the sentinel signature -> one block.
            assert all(len(block) == 4 for block in batch.blocks)
