"""q-gram based indexing (QGr) — Baxter, Christen & Churches, 2003.

Each blocking key is split into q-grams; sub-lists containing at least
``ceil(threshold * L)`` of the L grams become index keys, so records
whose keys differ by a few grams still meet in some bucket. The number
of sub-lists is combinatorial in the deletion budget, which is why the
survey (and our Table 3) reports QGr among the slower methods; a cap on
the gram-list length keeps worst-case keys tractable (survey
implementations truncate long BKVs the same way).
"""

from __future__ import annotations

import math
from itertools import combinations

from repro.baselines.base import KeyedBlocker
from repro.errors import ConfigurationError
from repro.records.dataset import Dataset
from repro.text.qgrams import qgrams


class QGramBlocker(KeyedBlocker):
    """QGr — sub-list q-gram indexing."""

    name = "QGr"

    def __init__(
        self,
        attributes: tuple[str, ...],
        q: int = 2,
        threshold: float = 0.8,
        *,
        max_grams: int = 12,
    ) -> None:
        super().__init__(attributes)
        if q < 1:
            raise ConfigurationError(f"q must be >= 1, got {q}")
        if not 0.0 < threshold <= 1.0:
            raise ConfigurationError(f"threshold must be in (0, 1], got {threshold}")
        if max_grams < 1:
            raise ConfigurationError(f"max_grams must be >= 1, got {max_grams}")
        self.q = q
        self.threshold = threshold
        self.max_grams = max_grams

    def describe(self) -> str:
        return f"QGr(q={self.q}, t={self.threshold})"

    def _sublists(self, grams: tuple[str, ...]) -> set[tuple[str, ...]]:
        """All sub-lists obtained by deleting grams down to the budget.

        Deleting any multiset of positions yields exactly the
        subsequences of ``grams``, so the deletion-frontier BFS
        (:func:`repro.reference.qgram_sublists`) is equivalent to
        enumerating position combinations per surviving length
        directly — each sub-list is produced once per *distinct* way it
        appears instead of being rediscovered (and set-deduplicated) at
        every deletion depth, which removes the super-linear frontier
        blow-up from the inner loop of the batch key path.
        """
        min_len = max(1, math.ceil(self.threshold * len(grams)))
        results: set[tuple[str, ...]] = set()
        for keep in range(min_len, len(grams) + 1):
            results.update(
                tuple(grams[i] for i in chosen)
                for chosen in combinations(range(len(grams)), keep)
            )
        return results

    def _groups(self, dataset: Dataset) -> list[list[str]]:
        # Batch key path: keys in one memoized pass, gram extraction
        # once per distinct key string, and the combinatorial sub-list
        # expansion once per distinct gram list — records sharing a key
        # (ubiquitous in dedup corpora) pay for the deletion frontier
        # once. The record-order loop is kept so bucket membership
        # order matches the per-record reference.
        buckets: dict[tuple[str, ...], list[str]] = {}
        grams_of: dict[str, tuple[str, ...]] = {}
        sublists_of: dict[tuple[str, ...], set[tuple[str, ...]]] = {}
        for record_id, key in zip(dataset.record_ids, self.keys_of(dataset)):
            grams = grams_of.get(key)
            if grams is None:
                grams = tuple(qgrams(key, self.q))[: self.max_grams]
                grams_of[key] = grams
            if not grams:
                continue
            sublists = sublists_of.get(grams)
            if sublists is None:
                sublists = self._sublists(grams)
                sublists_of[grams] = sublists
            for sublist in sublists:
                buckets.setdefault(sublist, []).append(record_id)
        return list(buckets.values())
