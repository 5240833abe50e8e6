"""QGr's sub-list expansion as the original deletion-frontier BFS.

The oracle of :meth:`repro.baselines.QGramBlocker._sublists`, which
enumerates position combinations per surviving length instead.
"""

from __future__ import annotations

import math

from repro.baselines.qgram_index import QGramBlocker


def qgram_sublists(
    blocker: QGramBlocker, grams: tuple[str, ...]
) -> set[tuple[str, ...]]:
    """All sub-lists of ``grams`` down to ``blocker``'s length budget,
    found by deleting one gram at a time, level by level."""
    min_len = max(1, math.ceil(blocker.threshold * len(grams)))
    results: set[tuple[str, ...]] = set()
    frontier = {grams}
    while frontier:
        results |= frontier
        next_frontier: set[tuple[str, ...]] = set()
        for current in frontier:
            if len(current) <= min_len:
                continue
            for index in range(len(current)):
                next_frontier.add(current[:index] + current[index + 1 :])
        frontier = next_frontier - results
    return {r for r in results if len(r) >= min_len}
