"""Named registry of string similarity functions.

The Table 3 baselines are parameterised by comparator name (the paper
uses Jaro-Winkler, bigram, edit-distance and longest common substring for
ASor, RSuA, StMT and StMNN). This registry maps those names to callables
``(str, str) -> float`` in [0, 1].
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.errors import ConfigurationError
from repro.text.jaccard import bigram_similarity, qgram_jaccard
from repro.text.jaro import jaro_similarity, jaro_winkler_similarity
from repro.text.lcs import lcs_similarity
from repro.text.levenshtein import edit_similarity

StringSimilarity = Callable[[str, str], float]


def exact_similarity(s1: str, s2: str) -> float:
    """1.0 for identical strings, else 0.0.

    Module-level (not a lambda) so a matcher using it pickles — durable
    resolvers checkpoint their matcher.
    """
    return 1.0 if s1 == s2 else 0.0


_REGISTRY: dict[str, StringSimilarity] = {
    "jaro": jaro_similarity,
    "jaro_winkler": jaro_winkler_similarity,
    "edit": edit_similarity,
    "bigram": bigram_similarity,
    "lcs": lcs_similarity,
    "jaccard_q2": partial(qgram_jaccard, q=2),
    "jaccard_q3": partial(qgram_jaccard, q=3),
    "exact": exact_similarity,
}

#: The four comparators the paper sweeps for ASor / RSuA / StMT / StMNN.
PAPER_COMPARATORS = ("jaro_winkler", "bigram", "edit", "lcs")


def available_similarities() -> list[str]:
    """Names accepted by :func:`get_similarity`."""
    return sorted(_REGISTRY)


def get_similarity(name: str) -> StringSimilarity:
    """Look up a similarity function by name.

    Raises
    ------
    ConfigurationError
        If the name is unknown.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_similarities())
        raise ConfigurationError(
            f"unknown similarity {name!r}; known: {known}"
        ) from None
