"""Tests for shingling and minhash signatures."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.minhash import MinHasher, Shingler
from repro.records import Record


def record(rid, title, authors=""):
    return Record(rid, {"title": title, "authors": authors})


class TestShingler:
    def test_basic_qgrams(self):
        shingler = Shingler(("title",), q=3)
        grams = shingler.shingles(record("r", "abcd"))
        assert grams == frozenset({"abc", "bcd"})

    def test_multiple_attributes_union(self):
        shingler = Shingler(("title", "authors"), q=3)
        grams = shingler.shingles(record("r", "abc", "xyz"))
        assert grams == frozenset({"abc", "xyz"})

    def test_normalisation_applied(self):
        shingler = Shingler(("title",), q=3)
        assert shingler.shingles(record("r", "A-B-C")) == shingler.shingles(
            record("r2", "a b c")
        )

    def test_exact_value_mode(self):
        shingler = Shingler(("title", "authors"), q=None)
        grams = shingler.shingles(record("r", "The Title", "Some One"))
        assert grams == frozenset({"title=the title", "authors=some one"})

    def test_missing_attribute_ignored(self):
        shingler = Shingler(("title", "authors"), q=2)
        assert shingler.shingles(record("r", "ab")) == frozenset({"ab"})

    def test_empty_record_yields_empty(self):
        shingler = Shingler(("title",), q=2)
        assert shingler.shingles(record("r", "")) == frozenset()

    def test_requires_attributes(self):
        with pytest.raises(ConfigurationError):
            Shingler((), q=2)

    def test_invalid_q(self):
        with pytest.raises(ConfigurationError):
            Shingler(("title",), q=0)

    def test_shingle_ids_stable_multiset(self):
        """Ids are a deterministic multiset; order is unspecified
        (minhash minima are order-invariant, so no sort is performed)."""
        shingler = Shingler(("title",), q=2)
        ids1 = shingler.shingle_ids(record("r", "wang qing"))
        ids2 = shingler.shingle_ids(record("s", "wang qing"))
        assert np.array_equal(np.sort(ids1), np.sort(ids2))
        assert ids1.dtype == np.uint64

    def test_jaccard_identical_and_disjoint(self):
        shingler = Shingler(("title",), q=2)
        assert shingler.jaccard(record("a", "wang"), record("b", "wang")) == 1.0
        assert shingler.jaccard(record("a", "ab"), record("b", "xy")) == 0.0

    def test_jaccard_both_empty_is_one(self):
        shingler = Shingler(("title",), q=2)
        assert shingler.jaccard(record("a", ""), record("b", "")) == 1.0


class TestMinHasher:
    def test_invalid_num_hashes(self):
        with pytest.raises(ConfigurationError):
            MinHasher(0)

    def test_signature_length(self):
        hasher = MinHasher(32, seed=1)
        shingler = Shingler(("title",), q=2)
        sig = hasher.signature(shingler.shingle_ids(record("r", "hello world")))
        assert sig.shape == (32,)

    def test_same_input_same_signature(self):
        hasher = MinHasher(16, seed=2)
        shingler = Shingler(("title",), q=2)
        ids = shingler.shingle_ids(record("r", "entity resolution"))
        assert np.array_equal(hasher.signature(ids), hasher.signature(ids))

    def test_estimate_jaccard_bounds(self):
        hasher = MinHasher(64, seed=3)
        shingler = Shingler(("title",), q=2)
        s1 = hasher.signature(shingler.shingle_ids(record("a", "blocking")))
        s2 = hasher.signature(shingler.shingle_ids(record("b", "blocking!")))
        assert 0.0 <= hasher.estimate_jaccard(s1, s2) <= 1.0

    def test_estimate_jaccard_mismatched_shapes(self):
        hasher = MinHasher(4, seed=0)
        with pytest.raises(ValueError):
            hasher.estimate_jaccard(np.zeros(4, np.uint64), np.zeros(5, np.uint64))

    def test_identical_shingles_identical_signatures(self):
        """Prop 5.2(1): simJ = 1 implies collision probability 1."""
        hasher = MinHasher(128, seed=4)
        shingler = Shingler(("title",), q=3)
        s1 = hasher.signature(shingler.shingle_ids(record("a", "Qing Wang")))
        s2 = hasher.signature(shingler.shingle_ids(record("b", "qing wang!")))
        assert np.array_equal(s1, s2)

    def test_signature_accuracy_on_known_jaccard(self):
        """Minhash agreement approximates the true Jaccard (within CLT)."""
        hasher = MinHasher(1024, seed=5)
        shingler = Shingler(("title",), q=2)
        r1 = record("a", "the cascade correlation learning architecture")
        r2 = record("b", "cascade correlation learning architecture")
        true = shingler.jaccard(r1, r2)
        estimate = hasher.estimate_jaccard(
            hasher.signature(shingler.shingle_ids(r1)),
            hasher.signature(shingler.shingle_ids(r2)),
        )
        assert estimate == pytest.approx(true, abs=0.06)

    def test_empty_records_collide_with_each_other_only(self):
        hasher = MinHasher(8, seed=6)
        shingler = Shingler(("title",), q=2)
        empty1 = hasher.signature(shingler.shingle_ids(record("a", "")))
        empty2 = hasher.signature(shingler.shingle_ids(record("b", "")))
        full = hasher.signature(shingler.shingle_ids(record("c", "text")))
        assert np.array_equal(empty1, empty2)
        assert not np.array_equal(empty1, full)

