"""Tests for the LSH substrate: sensitivity, bands, index, collision math."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.lsh import bands
from repro.lsh.index import _segment
from repro.lsh import (
    BandedLSHIndex,
    SensitivityParams,
    amplify_sensitivity,
    banded_collision_probability,
    salsh_collision_probability,
    split_bands,
    wway_collision_probability,
)


class TestSensitivity:
    def test_valid_params(self):
        params = SensitivityParams(0.1, 0.5, 0.9, 0.2)
        assert params.gap == pytest.approx(0.7)

    def test_invalid_distance_order(self):
        with pytest.raises(ConfigurationError):
            SensitivityParams(0.6, 0.5, 0.9, 0.2)

    def test_invalid_probability_order(self):
        with pytest.raises(ConfigurationError):
            SensitivityParams(0.1, 0.5, 0.2, 0.9)

    def test_amplification_widens_gap(self):
        base = SensitivityParams(0.2, 0.6, 0.8, 0.4)
        amplified = amplify_sensitivity(base, k=4, l=8)
        assert amplified.gap > base.gap

    def test_amplification_formula(self):
        base = SensitivityParams(0.2, 0.6, 0.8, 0.4)
        amplified = amplify_sensitivity(base, k=2, l=3)
        assert amplified.p1 == pytest.approx(1 - (1 - 0.8**2) ** 3)
        assert amplified.p2 == pytest.approx(1 - (1 - 0.4**2) ** 3)

    def test_amplify_invalid_kl(self):
        with pytest.raises(ConfigurationError):
            amplify_sensitivity(SensitivityParams(0.1, 0.5, 0.9, 0.2), 0, 5)


class TestBands:
    def test_split_bands_shapes(self):
        signature = np.arange(12, dtype=np.uint64)
        bands = split_bands(signature, k=3, l=4)
        assert len(bands) == 4
        assert bands[0] == (0, 1, 2)
        assert bands[3] == (9, 10, 11)

    def test_split_bands_wrong_length(self):
        with pytest.raises(ConfigurationError):
            split_bands(np.arange(10, dtype=np.uint64), k=3, l=4)


def _keys(*rows: list[int]) -> np.ndarray:
    """A key matrix with one row of integer band keys per record."""
    return np.array(rows, dtype=np.int64)


def _rows(*rows: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64)


class TestBandedLSHIndex:
    def test_records_with_same_keys_share_block(self):
        index = BandedLSHIndex(2)
        index.add_many(["a", "b"], _keys([1, 2], [1, 9]))
        blocks = index.blocks()
        assert ("a", "b") in blocks

    def test_min_size_filters_singletons(self):
        index = BandedLSHIndex(1)
        index.add_many(["a", "b"], _keys([1], [2]))
        assert index.blocks() == []

    def test_gate_excludes_records(self):
        index = BandedLSHIndex(1)
        # "b" has no gate entry: excluded from the table.
        index.add_many(
            ["a", "b", "c"], _keys([7], [7], [7]), [(_rows(0, 2), _rows(-1, -1))]
        )
        assert index.blocks() == [("a", "c")]

    def test_gate_multiple_suffixes_or_semantics(self):
        index = BandedLSHIndex(1)
        gate = (_rows(0, 0, 1, 1), np.array([0, 1, 1, 2]))
        index.add_many(["a", "b"], _keys([7], [7]), [gate])
        blocks = index.blocks()
        assert ("a", "b") in blocks  # met in suffix 1

    def test_wrong_number_of_keys(self):
        index = BandedLSHIndex(2)
        with pytest.raises(ValueError):
            index.add_many(["a"], _keys([1]))

    def test_invalid_table_count(self):
        with pytest.raises(ValueError):
            BandedLSHIndex(0)

    def test_bucket_sizes(self):
        index = BandedLSHIndex(1)
        index.add_many(["a", "b", "c"], _keys([7], [7], [8]))
        assert sorted(index.bucket_sizes()) == [1, 2]


def _duplicated_keys(k: int, n: int = 4000, seed: int = 0) -> np.ndarray:
    """Random ``S{8k}`` band keys drawn from a small pool, so most
    repeat; half the pool differs from another key only in a trailing
    zero word (the one numpy's S dtype strips when reading a scalar)."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 1 << 62, size=(60, k), dtype=np.uint64)
    pool[1::2] = pool[::2]
    pool[1::2, -1] = 0
    pool[-1] = 0
    words = pool[rng.integers(0, len(pool), size=n)]
    return np.ascontiguousarray(words).view(f"S{8 * k}").reshape(-1)


def _same_partition(labels: np.ndarray, reference: np.ndarray) -> bool:
    pairs = set(zip(labels.tolist(), reference.tolist()))
    return len(pairs) == len(set(labels.tolist())) == len(set(reference.tolist()))


class TestDenseBandLabels:
    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_partition_equals_unique_inverse(self, k):
        keys = _duplicated_keys(k)
        _, inverse = np.unique(keys, return_inverse=True)
        labels = bands.dense_band_labels(keys)
        assert labels.dtype == np.int64
        assert _same_partition(labels, inverse)
        assert sorted(set(labels.tolist())) == list(range(len(set(inverse.tolist()))))

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_fold_collisions_fall_back_exactly(self, k, monkeypatch):
        keys = _duplicated_keys(k, seed=k)
        _, inverse = np.unique(keys, return_inverse=True)
        fold = bands.fold_labels
        monkeypatch.setattr(bands, "fold_labels", lambda keys: fold(keys) & np.uint64(3))
        labels = bands.dense_band_labels(keys)
        # Distinct keys now share folds, so the word check must reject
        # the fold grouping and hand back np.unique's own numbering.
        assert np.array_equal(labels, inverse)

    def test_strided_and_empty_keys(self):
        keys = _duplicated_keys(4).reshape(-1, 2)[:, 1]
        _, inverse = np.unique(keys, return_inverse=True)
        assert _same_partition(bands.dense_band_labels(keys), inverse)
        assert bands.dense_band_labels(keys[:0]).size == 0

    @pytest.mark.parametrize("gated", [False, True])
    def test_index_blocks_survive_colliding_folds(self, gated, monkeypatch):
        keys = _duplicated_keys(2, n=600, seed=5).reshape(-1, 3)
        ids = [f"r{i}" for i in range(len(keys))]
        gates = None
        if gated:
            rows = np.repeat(np.arange(len(ids)), 2)
            suffixes = np.tile(np.array([0, 1]), len(ids)) + rows % 3
            gates = [(rows, suffixes)] * 3

        def blocks():
            index = BandedLSHIndex(3)
            index.add_many(ids[:150], keys[:150], None if gates is None else [
                (r[r < 150], s[r < 150]) for r, s in gates
            ])
            index.add_many(ids[150:], keys[150:], None if gates is None else [
                (r[r >= 150] - 150, s[r >= 150]) for r, s in gates
            ])
            index.remove("r7")
            return index.blocks()

        expected = blocks()
        fold = bands.fold_labels
        monkeypatch.setattr(bands, "fold_labels", lambda keys: fold(keys) & np.uint64(1))
        assert blocks() == expected
        assert len(expected) > 0


class TestFoldLabels:
    def test_equal_labels_fold_equal(self):
        keys = np.array([b"aaaaaaaa", b"bbbbbbbb", b"aaaaaaaa"], dtype="S8")
        folded = bands.fold_labels(keys)
        assert folded[0] == folded[2]
        assert folded[0] != folded[1]

    def test_int_labels(self):
        labels = np.array([-3, 7, -3, 0], dtype=np.int64)
        folded = bands.fold_labels(labels)
        assert folded[0] == folded[2]
        assert len(set(folded.tolist())) == 3

    def test_bad_width_rejected(self):
        with pytest.raises(ConfigurationError):
            bands.fold_labels(np.array([b"abc"], dtype="S3"))


class TestSegment:
    @pytest.mark.parametrize(
        "dtype,high",
        [(np.int64, 3), (np.int64, 1 << 40), (np.int32, 1 << 30), (np.uint64, 7)],
    )
    def test_order_is_the_stable_sort(self, dtype, high):
        rng = np.random.default_rng(high % 97)
        labels = rng.integers(0, high, size=3000).astype(dtype)
        order, starts, ends = _segment(labels)
        assert np.array_equal(order, np.argsort(labels, kind="stable"))
        assert (labels[order[starts]] == labels[order[ends - 1]]).all()

    def test_extreme_int64_labels_keep_the_stable_sort(self):
        info = np.iinfo(np.int64)
        labels = np.array([info.max, 0, info.min, 0, info.max], dtype=np.int64)
        assert _segment(labels)[0].tolist() == [2, 1, 3, 0, 4]


class TestCollisionMath:
    def test_banded_probability_endpoints(self):
        assert banded_collision_probability(0.0, 3, 5) == 0.0
        assert banded_collision_probability(1.0, 3, 5) == 1.0

    def test_banded_probability_monotone_in_s(self):
        values = [banded_collision_probability(s / 10, 4, 63) for s in range(11)]
        assert values == sorted(values)

    def test_paper_ncvoter_point(self):
        """k=9, l=15 places 0.8-similar pairs with ~90% probability (§6.1)."""
        assert banded_collision_probability(0.8, 9, 15) == pytest.approx(
            0.885, abs=1e-3
        )

    def test_wway_and_or_formulas(self):
        assert wway_collision_probability(0.5, 2, "and") == 0.25
        assert wway_collision_probability(0.5, 2, "or") == 0.75

    def test_wway_w1_and_equals_or(self):
        """Fig. 5/7/8: a 1-way function is the same under both µ."""
        for s in (0.0, 0.3, 0.8, 1.0):
            assert wway_collision_probability(s, 1, "and") == pytest.approx(
                wway_collision_probability(s, 1, "or")
            )

    def test_wway_and_decreases_or_increases_with_w(self):
        s = 0.6
        and_values = [wway_collision_probability(s, w, "and") for w in range(1, 10)]
        or_values = [wway_collision_probability(s, w, "or") for w in range(1, 10)]
        assert and_values == sorted(and_values, reverse=True)
        assert or_values == sorted(or_values)

    def test_wway_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            wway_collision_probability(0.5, 2, "xor")

    def test_salsh_zero_semantic_blocks_nothing(self):
        """Prop 5.3(1): semantic similarity 0 -> collision probability 0."""
        assert salsh_collision_probability(1.0, 0.0, 4, 63, 3, "or") == 0.0
        assert salsh_collision_probability(1.0, 0.0, 4, 63, 3, "and") == 0.0

    def test_salsh_reduces_to_banded_when_semantics_certain(self):
        assert salsh_collision_probability(0.7, 1.0, 4, 63, 2, "or") == pytest.approx(
            banded_collision_probability(0.7, 4, 63)
        )

    def test_salsh_never_exceeds_banded(self):
        """Prop 5.3(2): the semantic gate can only reduce collisions."""
        for s in (0.2, 0.5, 0.9):
            for sp in (0.1, 0.5, 0.9):
                combined = salsh_collision_probability(s, sp, 3, 10, 2, "and")
                assert combined <= banded_collision_probability(s, 3, 10) + 1e-12

    def test_probability_out_of_range_raises(self):
        with pytest.raises(ConfigurationError):
            banded_collision_probability(1.5, 2, 2)
