"""Pairwise record matching over blocking candidates.

A :class:`SimilarityMatcher` scores candidate pairs with a weighted
combination of per-attribute string similarities (the classic
Fellegi-Sunter-style linear comparison vector) and classifies them as
matches, non-matches, or possible matches via two thresholds — matching
the three-region structure of the paper's §3.

Scoring has two engines. The per-pair path (:meth:`SimilarityMatcher.score`)
walks one pair at a time; :meth:`SimilarityMatcher.score_pairs` gathers
each attribute column once through the dataset's cached factorization
and scores all candidate pairs per attribute in one pass — exact
comparison as a code equality test, q-gram Jaccard as packed-bitset
popcounts, everything else by scoring each *distinct* value combination
once and scattering. The batch results are bitwise identical to the
per-pair path.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.records.dataset import Dataset
from repro.records.ground_truth import Pair
from repro.records.record import Record
from repro.text.levenshtein import edit_similarities
from repro.text.qgrams import qgram_set
from repro.text.similarity import StringSimilarity, get_similarity

#: Pairs per chunk in the bitset Jaccard kernel (bounds gather memory).
_JACCARD_CHUNK = 1 << 18

#: Measure names with a dedicated vectorized kernel.
_QGRAM_MEASURES = {"jaccard_q2": 2, "jaccard_q3": 3}

#: dataset -> {(attribute, q): (bitsets, set_sizes)}; weak so cached
#: bitsets die with their dataset.
_QGRAM_BITS: "weakref.WeakKeyDictionary[Dataset, dict]" = weakref.WeakKeyDictionary()


def _qgram_bitsets(
    dataset: Dataset, attribute: str, q: int
) -> tuple[np.ndarray, np.ndarray]:
    """Packed q-gram bitset and set size per distinct attribute value."""
    per_dataset = _QGRAM_BITS.setdefault(dataset, {})
    cached = per_dataset.get((attribute, q))
    if cached is None:
        _, uniques = dataset.attribute_codes(attribute)
        grams = [qgram_set(value, q) for value in uniques]
        vocabulary: dict[str, int] = {}
        tokens = np.fromiter(
            (
                vocabulary.setdefault(gram, len(vocabulary))
                for gram_set in grams
                for gram in gram_set
            ),
            dtype=np.uint64,
        )
        sizes = np.fromiter(map(len, grams), dtype=np.int64, count=len(grams))
        words = max(1, (len(vocabulary) + 63) >> 6)
        bits = np.zeros((len(uniques), words), dtype=np.uint64)
        # One scatter sets every (value, gram) bit; bit positions follow
        # first-seen gram order, which intersections do not depend on.
        rows = np.repeat(np.arange(len(grams)), sizes)
        np.bitwise_or.at(
            bits,
            (rows, (tokens >> np.uint64(6)).astype(np.intp)),
            np.uint64(1) << (tokens & np.uint64(63)),
        )
        cached = (bits, sizes)
        per_dataset[(attribute, q)] = cached
    return cached


def _jaccard_batch(
    bits: np.ndarray,
    sizes: np.ndarray,
    codes1: np.ndarray,
    codes2: np.ndarray,
) -> np.ndarray:
    """|A ∩ B| / |A ∪ B| per pair via popcounts (empty ∪ empty -> 1)."""
    scores = np.empty(codes1.size, dtype=np.float64)
    for start in range(0, codes1.size, _JACCARD_CHUNK):
        stop = start + _JACCARD_CHUNK
        c1, c2 = codes1[start:stop], codes2[start:stop]
        inter = (
            np.bitwise_count(bits[c1] & bits[c2]).sum(axis=1).astype(np.int64)
        )
        union = sizes[c1] + sizes[c2] - inter
        chunk = np.ones(c1.size, dtype=np.float64)
        np.divide(inter, union, out=chunk, where=union > 0)
        scores[start:stop] = chunk
    return scores


def _unique_combos(
    codes1: np.ndarray, codes2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (code1, code2) combinations and the scatter inverse."""
    combos = (codes1.astype(np.uint64) << np.uint64(32)) | codes2.astype(
        np.uint64
    )
    unique_combos, inverse = np.unique(combos, return_inverse=True)
    first = (unique_combos >> np.uint64(32)).astype(np.int64)
    second = (unique_combos & np.uint64(0xFFFFFFFF)).astype(np.int64)
    return first, second, inverse


def _generic_batch(
    similarity: StringSimilarity,
    uniques: Sequence[str],
    codes1: np.ndarray,
    codes2: np.ndarray,
) -> np.ndarray:
    """Score each distinct (value1, value2) combination once, scatter."""
    first, second, inverse = _unique_combos(codes1, codes2)
    scored = np.fromiter(
        (
            similarity(uniques[a], uniques[b])
            for a, b in zip(first.tolist(), second.tolist())
        ),
        dtype=np.float64,
        count=first.size,
    )
    return scored[inverse]


def _edit_batch(
    uniques: Sequence[str], codes1: np.ndarray, codes2: np.ndarray
) -> np.ndarray:
    """Edit similarities via the banded-DP batch kernel.

    Like :func:`_generic_batch`, each distinct value combination is
    scored once — but all of them go through one
    :func:`~repro.text.levenshtein.edit_similarities` call, so the DP
    itself is vectorized instead of one Python DP per combination.
    """
    first, second, inverse = _unique_combos(codes1, codes2)
    lefts = [uniques[a] for a in first.tolist()]
    rights = [uniques[b] for b in second.tolist()]
    return edit_similarities(lefts, rights)[inverse]


@dataclass(frozen=True)
class MatchDecision:
    """Outcome of scoring one candidate pair."""

    pair: Pair
    score: float
    label: str  # 'match' | 'possible' | 'non-match'


class SimilarityMatcher:
    """Weighted-average attribute similarity classifier.

    Parameters
    ----------
    attribute_similarities:
        Mapping attribute -> similarity function name (see
        :func:`repro.text.similarity.get_similarity`).
    weights:
        Optional per-attribute weights (default: uniform).
    match_threshold / possible_threshold:
        Scores >= ``match_threshold`` are matches; scores in
        [possible_threshold, match_threshold) are possible matches
        (the §3 uncertain region); the rest are non-matches.
    """

    def __init__(
        self,
        attribute_similarities: Mapping[str, str],
        *,
        weights: Mapping[str, float] | None = None,
        match_threshold: float = 0.85,
        possible_threshold: float = 0.65,
    ) -> None:
        if not attribute_similarities:
            raise ConfigurationError("need at least one attribute similarity")
        if not 0.0 <= possible_threshold <= match_threshold <= 1.0:
            raise ConfigurationError(
                "need 0 <= possible_threshold <= match_threshold <= 1, got "
                f"{possible_threshold} / {match_threshold}"
            )
        self._measure_names = dict(attribute_similarities)
        self._similarities: dict[str, StringSimilarity] = {
            attribute: get_similarity(name)
            for attribute, name in attribute_similarities.items()
        }
        raw_weights = dict(weights or {})
        self._weights = {
            attribute: raw_weights.get(attribute, 1.0)
            for attribute in self._similarities
        }
        total = sum(self._weights.values())
        if total <= 0:
            raise ConfigurationError("weights must sum to a positive value")
        self._weights = {a: w / total for a, w in self._weights.items()}
        self.match_threshold = match_threshold
        self.possible_threshold = possible_threshold

    def score(self, dataset: Dataset, pair: Pair) -> float:
        """Weighted similarity of one pair in [0, 1]."""
        record1, record2 = dataset[pair[0]], dataset[pair[1]]
        total = 0.0
        for attribute, similarity in self._similarities.items():
            total += self._weights[attribute] * similarity(
                record1.get(attribute), record2.get(attribute)
            )
        return total

    def score_pairs(
        self, dataset: Dataset, pairs: Sequence[Pair]
    ) -> np.ndarray:
        """Weighted similarities of many pairs in one vectorized pass.

        Aligned with the input pair order; bitwise identical to calling
        :meth:`score` on each pair.
        """
        pair_list = pairs if isinstance(pairs, list) else list(pairs)
        if not pair_list:
            return np.empty(0, dtype=np.float64)
        left = dataset.encode_ids([p[0] for p in pair_list])
        right = dataset.encode_ids([p[1] for p in pair_list])
        scores = np.zeros(left.size, dtype=np.float64)
        for attribute, similarity in self._similarities.items():
            codes, uniques = dataset.attribute_codes(attribute)
            codes1, codes2 = codes[left], codes[right]
            measure = self._measure_names[attribute]
            if measure == "exact":
                column = (codes1 == codes2).astype(np.float64)
            elif measure in _QGRAM_MEASURES:
                bits, sizes = _qgram_bitsets(
                    dataset, attribute, _QGRAM_MEASURES[measure]
                )
                column = _jaccard_batch(bits, sizes, codes1, codes2)
            elif measure == "edit":
                column = _edit_batch(uniques, codes1, codes2)
            else:
                column = _generic_batch(similarity, uniques, codes1, codes2)
            scores += self._weights[attribute] * column
        return scores

    def label_for(self, score: float) -> str:
        """Three-region label of a score — 'match', 'possible' or
        'non-match' (the resolver's confidence tiers)."""
        if score >= self.match_threshold:
            return "match"
        if score >= self.possible_threshold:
            return "possible"
        return "non-match"

    def score_against(
        self, probe: Record, candidates: Iterable[Record]
    ) -> np.ndarray:
        """Weighted similarities of one probe record vs many candidates.

        The single-record form of :meth:`score_pairs` — no dataset or
        cached factorization required, so the online resolver can score
        a query record that belongs to no corpus. Each distinct
        (probe value, candidate value) combination per attribute is
        scored once and scattered; identical to :meth:`score` on each
        (probe, candidate) pair.
        """
        candidate_list = (
            candidates if isinstance(candidates, list) else list(candidates)
        )
        scores = np.zeros(len(candidate_list), dtype=np.float64)
        if not candidate_list:
            return scores
        for attribute, similarity in self._similarities.items():
            probe_value = probe.get(attribute)
            memo: dict[str, float] = {}
            weight = self._weights[attribute]
            for row, candidate in enumerate(candidate_list):
                value = candidate.get(attribute)
                cached = memo.get(value)
                if cached is None:
                    cached = similarity(probe_value, value)
                    memo[value] = cached
                scores[row] += weight * cached
        return scores

    def classify(self, dataset: Dataset, pair: Pair) -> MatchDecision:
        score = self.score(dataset, pair)
        return MatchDecision(pair=pair, score=score, label=self.label_for(score))

    def match_pairs(
        self, dataset: Dataset, candidate_pairs: Iterable[Pair]
    ) -> list[MatchDecision]:
        """Classify every candidate pair (sorted for determinism),
        scored in one :meth:`score_pairs` pass."""
        pairs = sorted(candidate_pairs)
        scores = self.score_pairs(dataset, pairs)
        return [
            MatchDecision(pair=pair, score=score, label=self.label_for(score))
            for pair, score in zip(pairs, scores.tolist())
        ]

    def matches(
        self, dataset: Dataset, candidate_pairs: Iterable[Pair]
    ) -> set[Pair]:
        """Just the pairs classified as matches."""
        return {
            decision.pair
            for decision in self.match_pairs(dataset, candidate_pairs)
            if decision.label == "match"
        }
