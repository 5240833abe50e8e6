"""Tests for w-way AND/OR semantic hash families (§5.2)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.semantic import WWaySemanticHashFamily
from repro.semantic.hashing import AND_SUFFIX


def sig(*bits):
    return np.array(bits, dtype=np.uint8)


class TestConstruction:
    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            WWaySemanticHashFamily(4, 2, "xor", 3)

    def test_w_all_uses_every_bit(self):
        family = WWaySemanticHashFamily(5, "all", "or", 2, seed=1)
        assert family.w == 5
        assert family.chosen_bits(0) == (0, 1, 2, 3, 4)

    def test_w_out_of_range(self):
        with pytest.raises(ConfigurationError):
            WWaySemanticHashFamily(4, 5, "or", 3)
        with pytest.raises(ConfigurationError):
            WWaySemanticHashFamily(4, 0, "or", 3)

    def test_deterministic_choices(self):
        f1 = WWaySemanticHashFamily(10, 3, "or", 5, seed=9)
        f2 = WWaySemanticHashFamily(10, 3, "or", 5, seed=9)
        for table in range(5):
            assert f1.chosen_bits(table) == f2.chosen_bits(table)

    def test_tables_draw_independent_bits(self):
        family = WWaySemanticHashFamily(12, 3, "or", 20, seed=2)
        choices = {family.chosen_bits(t) for t in range(20)}
        assert len(choices) > 1  # overwhelmingly likely


class TestAndGate:
    def test_all_bits_set_passes(self):
        family = WWaySemanticHashFamily(3, 3, "and", 1, seed=0)
        assert family.gate_suffixes(0, sig(1, 1, 1)) == (AND_SUFFIX,)

    def test_any_bit_missing_excludes(self):
        family = WWaySemanticHashFamily(3, 3, "and", 1, seed=0)
        assert family.gate_suffixes(0, sig(1, 0, 1)) == ()

    def test_pair_collides_iff_both_pass(self):
        family = WWaySemanticHashFamily(3, 3, "and", 1, seed=0)
        assert family.pair_collides(0, sig(1, 1, 1), sig(1, 1, 1))
        assert not family.pair_collides(0, sig(1, 1, 1), sig(1, 0, 1))


class TestOrGate:
    def test_suffix_per_set_bit(self):
        family = WWaySemanticHashFamily(4, "all", "or", 1, seed=0)
        assert family.gate_suffixes(0, sig(1, 0, 1, 0)) == (0, 2)

    def test_no_bits_excludes(self):
        family = WWaySemanticHashFamily(4, "all", "or", 1, seed=0)
        assert family.gate_suffixes(0, sig(0, 0, 0, 0)) == ()

    def test_pair_collides_iff_shared_bit(self):
        family = WWaySemanticHashFamily(4, "all", "or", 1, seed=0)
        assert family.pair_collides(0, sig(1, 0, 1, 0), sig(0, 0, 1, 1))
        assert not family.pair_collides(0, sig(1, 0, 0, 0), sig(0, 1, 1, 1))


class TestGateBucketEquivalence:
    """The bucket construction realises exactly the pairwise predicate."""

    @pytest.mark.parametrize("mode", ["and", "or"])
    @pytest.mark.parametrize("w", [1, 2, 3, 5])
    def test_equivalence_exhaustive_over_signatures(self, mode, w):
        num_bits = 5
        family = WWaySemanticHashFamily(num_bits, w, mode, 4, seed=13)
        signatures = [
            np.array([(value >> b) & 1 for b in range(num_bits)], dtype=np.uint8)
            for value in range(2**num_bits)
        ]
        for table in range(4):
            for s1 in signatures:
                suffixes1 = set(family.gate_suffixes(table, s1))
                for s2 in signatures:
                    suffixes2 = set(family.gate_suffixes(table, s2))
                    bucket_collision = bool(suffixes1 & suffixes2)
                    assert bucket_collision == family.pair_collides(
                        table, s1, s2
                    ), (mode, w, table, s1, s2)


class TestCollisionProbability:
    def test_matches_fig5_shape(self):
        """AND decreases with w, OR increases with w, for fixed s'."""
        for s_prime in (0.2, 0.4, 0.6, 0.8):
            and_family = [
                WWaySemanticHashFamily(16, w, "and", 1, seed=0).collision_probability(s_prime)
                for w in range(1, 8)
            ]
            or_family = [
                WWaySemanticHashFamily(16, w, "or", 1, seed=0).collision_probability(s_prime)
                for w in range(1, 8)
            ]
            assert and_family == sorted(and_family, reverse=True)
            assert or_family == sorted(or_family)

    def test_w1_and_equals_or(self):
        and_p = WWaySemanticHashFamily(8, 1, "and", 1, seed=0).collision_probability(0.5)
        or_p = WWaySemanticHashFamily(8, 1, "or", 1, seed=0).collision_probability(0.5)
        assert and_p == or_p == 0.5
