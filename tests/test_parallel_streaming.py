"""Streaming runtime equivalence (see DESIGN.md, "Streaming runtime").

The contract mirrors the batch engine's guarantee: neither the
hash-function chunk size nor slab boundaries may change a single byte
of the output. Covers chunked signature matrices (plain and
runner-up), incremental ``shingle_corpus`` appends over a shared
:class:`ShingleVocabulary`, cross-slab bucket merging in
``BandedLSHIndex.add_many`` (with and without semantic gates),
``LSHBlocker.block_stream``, and the bounded :class:`LRUCache`. The
signature spill has its own suite (``tests/test_growable_spill.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LSHBlocker
from repro.core.lsh_variants import _MinHasherWithRunnerUp
from repro.errors import ConfigurationError
from repro.lsh.bands import split_bands_matrix
from repro.lsh.index import BandedLSHIndex
from repro.minhash import MinHasher, Shingler, ShingleVocabulary
from repro.records import Dataset, Record
from repro.semantic import SemhashEncoder, VoterSemanticFunction
from repro.semantic.hashing import WWaySemanticHashFamily
from repro.utils.cache import LRUCache

VOTER_ATTRS = ("first_name", "last_name")


def title_dataset(titles: list[str]) -> Dataset:
    return Dataset([Record(f"r{i}", {"title": t}) for i, t in enumerate(titles)])


#: Same awkward layouts as test_batch_equivalence: duplicates, empty
#: records mid-stream and trailing, a single-shingle record.
EDGE_TITLES = [
    "alpha beta gamma",
    "alpha beta gamma",
    "",
    "x",
    "delta epsilon",
    "alpha bexa gamna",
    "",
]


class TestParallelSignatureMatrix:
    def test_workers_with_tiny_chunks(self):
        # chunk_elements=1 forces one chunk per hash function, so every
        # chunk really runs as its own unit of work.
        corpus = Shingler(("title",), q=2).shingle_corpus(
            title_dataset(EDGE_TITLES)
        )
        hasher = MinHasher(24, seed=5)
        serial = hasher.signature_matrix(corpus)
        chunked = hasher.signature_matrix(corpus, chunk_elements=1)
        assert np.array_equal(serial, chunked)


class TestChunkedSignatureMatrix:
    def test_chunking_byte_identical(self, voter_small):
        # The chunk-size cap splits the hash functions into serial
        # chunks (here 1, 5 with a ragged tail, and all 48 at once);
        # every split writes the same bytes.
        shingler = Shingler(VOTER_ATTRS, q=2)
        hasher = MinHasher(48, seed=3)
        corpus = shingler.shingle_corpus(voter_small)
        serial = hasher.signature_matrix(corpus)
        stream = corpus.num_tokens + 1
        for rows in (1, 5, 48):
            chunked = hasher.signature_matrix(
                corpus, chunk_elements=rows * stream
            )
            assert np.array_equal(serial, chunked)

    def test_runner_up_chunking_byte_identical(self, cora_small):
        shingler = Shingler(("authors", "title"), q=3)
        hasher = _MinHasherWithRunnerUp(num_hashes=20, seed=2)
        corpus = shingler.shingle_corpus(cora_small)
        min_serial, run_serial = hasher.signature_matrix_with_runner_up(corpus)
        min_chunked, run_chunked = hasher.signature_matrix_with_runner_up(
            corpus, chunk_elements=1
        )
        assert np.array_equal(min_serial, min_chunked)
        assert np.array_equal(run_serial, run_chunked)


class TestIncrementalShingling:
    def test_append_matches_one_shot(self, voter_small):
        shingler = Shingler(VOTER_ATTRS, q=2)
        records = list(voter_small)
        one_shot = shingler.shingle_corpus(records)

        vocab = ShingleVocabulary()
        slabs = [records[:100], records[100:101], [], records[101:]]
        corpora = [
            shingler.shingle_corpus(slab, vocabulary=vocab) for slab in slabs
        ]

        # Slab CSR layouts concatenate to the one-shot layout: the
        # shared vocabulary interns grams in the same first-seen order.
        tokens = np.concatenate([c.token_vocab for c in corpora])
        counts = np.concatenate([c.counts for c in corpora])
        assert np.array_equal(tokens, one_shot.token_vocab)
        assert np.array_equal(
            np.cumsum(np.concatenate([[0], counts])), one_shot.indptr
        )
        assert sum(c.num_records for c in corpora) == one_shot.num_records
        assert np.array_equal(corpora[-1].vocab_hashes, one_shot.vocab_hashes)
        # Earlier slabs see a prefix of the final vocabulary.
        v0 = corpora[0].vocab_size
        assert np.array_equal(
            corpora[0].vocab_hashes, one_shot.vocab_hashes[:v0]
        )

    def test_signatures_invariant_under_slab_boundaries(self, voter_small):
        shingler = Shingler(VOTER_ATTRS, q=2)
        hasher = MinHasher(12, seed=9)
        records = list(voter_small)
        expected = hasher.signature_matrix(shingler.shingle_corpus(records))

        vocab = ShingleVocabulary()
        produced = []
        for lo in range(0, len(records), 150):
            corpus = shingler.shingle_corpus(
                records[lo : lo + 150], vocabulary=vocab
            )
            produced.append(hasher.signature_matrix(corpus))
        assert np.array_equal(np.concatenate(produced), expected)

    def test_tiny_slabs_trigger_vocabulary_compaction(self, voter_small):
        # Slabs of 2 records reference a sliver of the cumulative
        # vocabulary, so signature_matrix takes the compaction path
        # (vocab_size > slab token stream) — results must not change.
        shingler = Shingler(VOTER_ATTRS, q=2)
        hasher = MinHasher(10, seed=4)
        records = list(voter_small)[:60]
        expected = hasher.signature_matrix(shingler.shingle_corpus(records))

        vocab = ShingleVocabulary()
        produced = []
        for lo in range(0, len(records), 2):
            corpus = shingler.shingle_corpus(
                records[lo : lo + 2], vocabulary=vocab
            )
            if lo > 20:
                assert corpus.vocab_size > corpus.num_tokens + 1
            produced.append(hasher.signature_matrix(corpus))
        assert np.array_equal(np.concatenate(produced), expected)

    def test_vocabulary_rejects_other_config(self):
        vocab = ShingleVocabulary()
        Shingler(("title",), q=2).shingle_corpus(
            title_dataset(["ab"]), vocabulary=vocab
        )
        with pytest.raises(ConfigurationError):
            Shingler(("title",), q=3).shingle_corpus(
                title_dataset(["cd"]), vocabulary=vocab
            )

    def test_memo_cache_cap_does_not_change_output(self):
        titles = [f"rec {i % 7} value {i % 3}" for i in range(40)]
        shingler = Shingler(("title",), q=2)
        reference = shingler.shingle_corpus(title_dataset(titles))
        tiny_cache = ShingleVocabulary(max_cached_values=2)
        capped = shingler.shingle_corpus(
            title_dataset(titles), vocabulary=tiny_cache
        )
        assert np.array_equal(capped.token_vocab, reference.token_vocab)
        assert np.array_equal(capped.indptr, reference.indptr)
        assert len(tiny_cache.value_tokens) <= 2


class TestIndexSlabMerging:
    def _signatures(self, dataset, k=3, l=4):
        shingler = Shingler(VOTER_ATTRS, q=2)
        hasher = MinHasher(k * l, seed=2)
        corpus = shingler.shingle_corpus(dataset)
        return corpus.record_ids, hasher.signature_matrix(corpus), k, l

    def test_split_add_many_equals_single_call(self, voter_small):
        record_ids, signatures, k, l = self._signatures(voter_small)
        keys = split_bands_matrix(signatures, k, l)

        single = BandedLSHIndex(l)
        single.add_many(record_ids, keys)

        split = BandedLSHIndex(l)
        for lo in (0, 50, 51, 400):
            hi = {0: 50, 50: 51, 51: 400, 400: len(record_ids)}[lo]
            split.add_many(record_ids[lo:hi], keys[lo:hi])

        assert split.blocks() == single.blocks()
        assert split.bucket_sizes() == single.bucket_sizes()

    @pytest.mark.parametrize("w,mode", [("all", "or"), (2, "and"), (3, "or")])
    def test_split_gated_add_many_equals_single_call(self, voter_small, w, mode):
        record_ids, signatures, k, l = self._signatures(voter_small)
        keys = split_bands_matrix(signatures, k, l)
        encoder = SemhashEncoder(VoterSemanticFunction(), voter_small)
        semhash = encoder.signature_matrix(voter_small)
        gates = WWaySemanticHashFamily(
            num_bits=encoder.num_bits, w=w, mode=mode, num_tables=l, seed=1
        )

        single = BandedLSHIndex(l)
        single.add_many(
            record_ids, keys,
            gate_entries=[
                gates.gate_entries(t, semhash) for t in range(l)
            ],
        )

        split = BandedLSHIndex(l)
        for lo, hi in ((0, 123), (123, 124), (124, len(record_ids))):
            split.add_many(
                record_ids[lo:hi], keys[lo:hi],
                gate_entries=[
                    gates.gate_entries(t, semhash[lo:hi]) for t in range(l)
                ],
            )

        assert split.blocks() == single.blocks()
        assert split.bucket_sizes() == single.bucket_sizes()

    def test_add_many_after_blocks_extends_index(self, voter_small):
        record_ids, signatures, k, l = self._signatures(voter_small)
        keys = split_bands_matrix(signatures, k, l)
        index = BandedLSHIndex(l)
        index.add_many(record_ids[:200], keys[:200])
        first = index.blocks()
        index.add_many(record_ids[200:], keys[200:])
        merged = index.blocks()
        single = BandedLSHIndex(l)
        single.add_many(record_ids, keys)
        assert merged == single.blocks()
        assert first != merged


class TestStreamedBlocking:
    def _slabs(self, dataset, size):
        records = list(dataset)
        return [records[i : i + size] for i in range(0, len(records), size)]

    def test_block_stream_matches_block(self, voter_small):
        blocker = LSHBlocker(VOTER_ATTRS, q=2, k=4, l=6, seed=11)
        reference = blocker.block(voter_small)
        streamed = blocker.block_stream(self._slabs(voter_small, 111))
        assert streamed.blocks == reference.blocks
        assert streamed.metadata["engine"] == "streaming"
        assert streamed.metadata["num_slabs"] == 8


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.get("a") == 1  # refresh 'a'; 'b' is now LRU
        cache["c"] = 3
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_overwrite_refreshes(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        cache["a"] = 10  # refresh by reassignment
        cache["c"] = 3
        assert "b" not in cache and cache["a"] == 10

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_get_default_and_clear(self):
        cache = LRUCache(1)
        assert cache.get("missing", 42) == 42
        cache["x"] = 1
        cache.clear()
        assert len(cache) == 0
