"""Tests for the record/dataset model and ground-truth utilities."""

import numpy as np
import pytest

from repro.core import SALSHBlocker
from repro.errors import DatasetError
from repro.minhash import Shingler
from repro.records import (
    Dataset,
    Record,
    entity_clusters,
    sorted_pair,
    true_match_pairs,
)


def make_record(rid="r1", title="a title", entity=None):
    return Record(rid, {"title": title}, entity_id=entity)


class TestRecord:
    def test_get_returns_value(self):
        record = make_record()
        assert record.get("title") == "a title"

    def test_get_missing_attribute_is_empty(self):
        assert make_record().get("authors") == ""

    def test_has_value_false_for_blank(self):
        record = Record("r", {"a": "  ", "b": "x"})
        assert not record.has_value("a")
        assert record.has_value("b")

    def test_fields_are_immutable(self):
        record = make_record()
        with pytest.raises(TypeError):
            record.fields["title"] = "other"  # type: ignore[index]

    def test_values_in_order(self):
        record = Record("r", {"a": "1", "b": "2"})
        assert record.values(("b", "a", "c")) == ["2", "1", ""]

    def test_equality_includes_fields_and_entity(self):
        assert make_record(entity="e") == make_record(entity="e")
        assert make_record(entity="e") != make_record(entity="f")
        assert make_record(title="x") != make_record(title="y")

    def test_hashable_by_id(self):
        assert len({make_record(), make_record()}) == 1

    def test_none_field_is_null(self):
        record = Record("a", {"title": None, "authors": "x y"})
        assert record.get("title") == ""
        assert not record.has_value("title")
        assert record == Record("a", {"title": "", "authors": "x y"})

    def test_none_field_shingles_as_empty(self):
        shingler = Shingler(("title", "authors"), q=2)
        with_none = [Record("a", {"title": None}), Record("b", {"title": "ab"})]
        with_empty = [Record("a", {"title": ""}), Record("b", {"title": "ab"})]
        assert shingler.shingle_ids(with_none[0]).size == 0
        got = shingler.shingle_corpus(with_none)
        expected = shingler.shingle_corpus(with_empty)
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.token_vocab, expected.token_vocab)

    @pytest.mark.parametrize("value", [3, 2.5, b"title", ["title"]])
    def test_non_str_field_rejected(self, value):
        with pytest.raises(DatasetError, match=r"'r7'.*'title'"):
            Record("r7", {"title": value})

    def test_salsh_blocks_corpus_with_none_fields(self, fig1, fig1_sf):
        # Fig. 1 has empty authors and publishers: the same corpus with
        # None in their place must block exactly like the original.
        nulled_fields = [
            {k: (v or None) for k, v in r.fields.items()} for r in fig1
        ]
        assert any(None in fields.values() for fields in nulled_fields)
        nulled = Dataset(
            [
                Record(r.record_id, fields, entity_id=r.entity_id)
                for r, fields in zip(fig1, nulled_fields)
            ]
        )
        blocker = SALSHBlocker(
            ("title", "authors"), q=2, k=2, l=8, seed=11,
            semantic_function=fig1_sf,
        )
        assert blocker.block(nulled).blocks == blocker.block(fig1).blocks


class TestGroundTruth:
    def test_sorted_pair_orders(self):
        assert sorted_pair("b", "a") == ("a", "b")
        assert sorted_pair("a", "b") == ("a", "b")

    def test_true_match_pairs_within_cluster(self):
        records = [make_record(f"r{i}", entity="e1") for i in range(3)]
        pairs = true_match_pairs(records)
        assert pairs == {("r0", "r1"), ("r0", "r2"), ("r1", "r2")}

    def test_unlabelled_records_ignored(self):
        records = [make_record("r1"), make_record("r2")]
        assert true_match_pairs(records) == set()

    def test_entity_clusters(self):
        records = [
            make_record("r1", entity="e1"),
            make_record("r2", entity="e1"),
            make_record("r3", entity="e2"),
            make_record("r4"),
        ]
        clusters = entity_clusters(records)
        assert clusters == {"e1": ["r1", "r2"], "e2": ["r3"]}


class TestDataset:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DatasetError):
            Dataset([make_record("x"), make_record("x")])

    def test_len_iter_getitem_contains(self):
        ds = Dataset([make_record("a"), make_record("b")])
        assert len(ds) == 2
        assert [r.record_id for r in ds] == ["a", "b"]
        assert ds["a"].record_id == "a"
        assert "b" in ds and "c" not in ds

    def test_getitem_unknown_raises(self):
        ds = Dataset([make_record("a")])
        with pytest.raises(DatasetError):
            ds["zzz"]

    def test_total_pairs(self):
        ds = Dataset([make_record(f"r{i}") for i in range(5)])
        assert ds.total_pairs == 10

    def test_true_matches_cached_and_correct(self):
        ds = Dataset(
            [make_record("a", entity="e"), make_record("b", entity="e")]
        )
        assert ds.true_matches == {("a", "b")}
        assert ds.num_true_matches == 1

    def test_is_true_match(self):
        ds = Dataset(
            [
                make_record("a", entity="e"),
                make_record("b", entity="e"),
                make_record("c", entity="f"),
                make_record("d"),
            ]
        )
        assert ds.is_true_match("a", "b")
        assert not ds.is_true_match("a", "c")
        assert not ds.is_true_match("a", "d")
        assert not ds.is_true_match("d", "d")

    def test_subset_preserves_order(self):
        ds = Dataset([make_record(r) for r in ("a", "b", "c")])
        sub = ds.subset(["c", "a"])
        assert sub.record_ids == ["a", "c"]

    def test_sample_deterministic(self):
        ds = Dataset([make_record(f"r{i}") for i in range(20)])
        assert ds.sample(5, seed=3).record_ids == ds.sample(5, seed=3).record_ids

    def test_sample_too_large_raises(self):
        ds = Dataset([make_record("a")])
        with pytest.raises(DatasetError):
            ds.sample(2)
