"""The value-level corpus layout equals the record-level one.

:meth:`~repro.minhash.shingling.Shingler.shingle_corpus` stores each
record as codes into a CSR of the slab's distinct attribute values, and
:meth:`~repro.minhash.minhash.MinHasher.signature_matrix` takes a
record's signature as the minimum of its value rows. These properties
hold that layout to the record-level definitions on corpora built to
hit its corner cases: empty, ``None`` and all-empty records, one value
under two attributes, q-grams shared across attributes, repeated
records under new ids, values that normalise to one string (NFC and NFD
spellings among them), and ``q=None``, whose gram carries the attribute
name.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lsh_variants import _MinHasherWithRunnerUp
from repro.minhash import MinHasher, Shingler
from repro.minhash.corpus import ShingleVocabulary
from repro.records import Record
from repro.text.normalize import normalize
from repro.text.qgrams import qgrams
from repro.utils.hashing import MERSENNE_PRIME_61, stable_hash

#: Values drawn from one small pool, so values repeat across records and
#: attributes and their q-grams overlap. "café" is spelled NFC and NFD;
#: the NFD spelling normalises to the same string as "CAFE" and " cafe!".
POOL = [
    "", "   ", "!!", "ab", "abab", "ba", "bab", "x", "anna", "nan",
    "café", "café", "CAFE", " cafe!", None,
]

values = st.one_of(st.sampled_from(POOL), st.text(alphabet="abn é", max_size=5))


@st.composite
def corpora(draw):
    """``(attributes, q, records)``: 2-3 attributes, some missing."""
    attributes = draw(st.sampled_from([("a", "b"), ("a", "b", "c")]))
    q = draw(st.sampled_from([None, 1, 2, 3]))
    rows = draw(
        st.lists(
            st.dictionaries(st.sampled_from(attributes), values),
            min_size=1,
            max_size=8,
        )
    )
    # One value under two attributes, and an all-empty record.
    shared = draw(st.sampled_from([v for v in POOL if v]))
    rows.append({attributes[0]: shared, attributes[1]: shared})
    rows.append({attribute: "" for attribute in attributes})
    records = [Record(f"r{i}", fields) for i, fields in enumerate(rows)]
    # Repeated records under new ids.
    repeats = draw(st.lists(st.integers(0, len(records) - 1), max_size=4))
    records += [
        Record(f"copy{i}", records[row].fields) for i, row in enumerate(repeats)
    ]
    order = draw(st.permutations(range(len(records))))
    return attributes, q, [records[i] for i in order]


def record_level_layout(shingler: Shingler, records):
    """``(indptr, token_vocab, vocab_hashes)`` built one record at a
    time: grams interned in (record, attribute, gram) order, a record's
    repeated grams kept once."""
    index: dict[str, int] = {}
    indptr, tokens = [0], []
    for record in records:
        merged = []
        for attribute in shingler.attributes:
            value = normalize(record.get(attribute))
            if not value:
                continue
            if shingler.q is None:
                grams = [f"{attribute}={value}"]
            else:
                grams = qgrams(value, shingler.q)
            merged += [index.setdefault(gram, len(index)) for gram in grams]
        tokens += dict.fromkeys(merged)
        indptr.append(len(tokens))
    hashes = [stable_hash(gram) % MERSENNE_PRIME_61 for gram in index]
    return (
        np.asarray(indptr, dtype=np.int64),
        np.asarray(tokens, dtype=np.int64),
        np.asarray(hashes, dtype=np.uint64),
    )


@settings(max_examples=60, deadline=None)
@given(corpora(), st.integers(1, 12), st.integers(0, 3))
def test_signatures_match_per_record(corpus_spec, num_hashes, seed):
    attributes, q, records = corpus_spec
    shingler = Shingler(attributes, q=q)
    corpus = shingler.shingle_corpus(records)
    hasher = MinHasher(num_hashes, seed=seed)
    expected = np.stack(
        [hasher.signature(shingler.shingle_ids(record)) for record in records]
    )
    assert np.array_equal(hasher.signature_matrix(corpus), expected)
    assert np.array_equal(
        hasher.signature_matrix(corpus, chunk_elements=1), expected
    )


@settings(max_examples=40, deadline=None)
@given(corpora(), st.integers(0, 3))
def test_runner_up_kernel_matches_per_record(corpus_spec, seed):
    attributes, q, records = corpus_spec
    shingler = Shingler(attributes, q=q)
    hasher = _MinHasherWithRunnerUp(num_hashes=8, seed=seed)
    minima, runners = hasher.signature_matrix_with_runner_up(
        shingler.shingle_corpus(records)
    )
    for row, record in enumerate(records):
        expected_min, expected_run = hasher.signature_with_runner_up(
            shingler.shingle_ids(record)
        )
        assert np.array_equal(minima[row], expected_min)
        assert np.array_equal(runners[row], expected_run)


@settings(max_examples=60, deadline=None)
@given(corpora())
def test_record_layout_is_the_record_by_record_one(corpus_spec):
    attributes, q, records = corpus_spec
    shingler = Shingler(attributes, q=q)
    corpus = shingler.shingle_corpus(records)
    indptr, tokens, hashes = record_level_layout(shingler, records)
    assert np.array_equal(corpus.indptr, indptr)
    assert np.array_equal(corpus.token_vocab, tokens)
    assert np.array_equal(corpus.vocab_hashes, hashes)
    assert corpus.value_codes.shape == (len(records), len(attributes))


#: Records whose distinct single-character values fill a shared
#: vocabulary far past any later slab's token stream, so every later
#: slab runs on a compacted vocabulary.
FILLER = [
    Record(f"fill{i}", {"a": chr(0x4E00 + i)}) for i in range(256)
]


@settings(max_examples=40, deadline=None)
@given(corpora(), st.integers(1, 4))
def test_slab_streaming_matches_one_shot(corpus_spec, num_slabs):
    attributes, q, records = corpus_spec
    shingler = Shingler(attributes, q=q)
    hasher = MinHasher(10, seed=5)
    probing = _MinHasherWithRunnerUp(10, seed=5)
    one_shot = shingler.shingle_corpus(FILLER + records)

    vocabulary = ShingleVocabulary()
    shingler.shingle_corpus(FILLER, vocabulary=vocabulary)
    size = -(-len(records) // num_slabs)
    slabs = [
        shingler.shingle_corpus(records[lo : lo + size], vocabulary=vocabulary)
        for lo in range(0, len(records), size)
    ]
    for slab in slabs:
        assert slab.vocab_size > slab.value_tokens.size + 1

    rows = slice(len(FILLER), None)
    assert np.array_equal(
        np.vstack([hasher.signature_matrix(slab) for slab in slabs]),
        hasher.signature_matrix(one_shot)[rows],
    )
    streamed = [probing.signature_matrix_with_runner_up(slab) for slab in slabs]
    minima, runners = probing.signature_matrix_with_runner_up(one_shot)
    assert np.array_equal(np.vstack([m for m, _ in streamed]), minima[rows])
    assert np.array_equal(np.vstack([r for _, r in streamed]), runners[rows])
    first = one_shot.indptr[len(FILLER)]
    assert np.array_equal(
        np.concatenate([slab.token_vocab for slab in slabs]),
        one_shot.token_vocab[first:],
    )
