"""Semantic functions ζ: record -> set of concepts (Definition 4.2).

A semantic function interprets each record as a set of concepts in a
taxonomy forest, subject to:

* **Specificity** — no concept of the interpretation subsumes another
  (only the most specific concepts remain).
* **Isolation** — the interpretation of a record depends only on that
  record (enforced by the interface: ``interpret`` receives a single
  record).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable

from repro.errors import SemanticFunctionError
from repro.records.record import Record
from repro.taxonomy.forest import TaxonomyForest
from repro.taxonomy.tree import TaxonomyTree
from repro.utils.cache import LRUCache

#: Distinct raw concept sets whose specific form
#: :meth:`SemanticFunction.interpret` keeps. A taxonomy-driven ζ yields
#: few of them (a voter record is one race × gender reading).
_SPECIFIC_SETS = 4096


def _as_forest(taxonomy: TaxonomyTree | TaxonomyForest) -> TaxonomyForest:
    if isinstance(taxonomy, TaxonomyForest):
        return taxonomy
    return TaxonomyForest.of(taxonomy)


def enforce_specificity(
    taxonomy: TaxonomyTree | TaxonomyForest, concepts: Iterable[str]
) -> frozenset[str]:
    """Drop every concept that (properly) subsumes another in the set.

    This makes any concept set satisfy Definition 4.2(a): keep a concept
    only if no distinct, more specific concept of the set is below it.

    >>> from repro.taxonomy.builders import bibliographic_tree
    >>> sorted(enforce_specificity(bibliographic_tree(), {"c1", "c3"}))
    ['c3']
    """
    forest = _as_forest(taxonomy)
    concept_set = set(concepts)
    for concept_id in concept_set:
        if not forest.has_concept(concept_id):
            raise SemanticFunctionError(f"unknown concept {concept_id!r}")
    kept = {
        c
        for c in concept_set
        if not any(
            c != other and forest.subsumes(c, other) for other in concept_set
        )
    }
    return frozenset(kept)


class SemanticFunction(ABC):
    """Base class of semantic functions.

    Subclasses implement :meth:`_interpret_raw`; the public
    :meth:`interpret` applies specificity enforcement and validates the
    result against the taxonomy.

    :meth:`interpret` memoises the specific set per raw concept set.
    That is sound because the forest's concept map is fixed when the
    forest is built and a tree never re-parents a known concept, so
    validation and subsumption among known concepts cannot change. A
    failed interpretation is not memoised: an unknown concept raises on
    every call. The memo is LRU-capped and left out of pickles
    (checkpoints carry the semantic function).
    """

    def __init__(self, taxonomy: TaxonomyTree | TaxonomyForest) -> None:
        self.forest = _as_forest(taxonomy)

    @abstractmethod
    def _interpret_raw(self, record: Record) -> Iterable[str]:
        """Return candidate concept ids for one record."""

    def interpret(self, record: Record) -> frozenset[str]:
        """The interpretation ζ(record): a specific, validated concept set."""
        raw = frozenset(self._interpret_raw(record))
        try:
            memo = self._specific
        except AttributeError:
            memo = self._specific = LRUCache(_SPECIFIC_SETS)
        zeta = memo.get(raw)
        if zeta is None:
            zeta = memo[raw] = enforce_specificity(self.forest, raw)
        return zeta

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_specific", None)
        return state


class CallableSemanticFunction(SemanticFunction):
    """Wrap an arbitrary callable ``record -> iterable of concept ids``.

    Useful for quick experiments and tests; the callable's output is
    still specificity-enforced and validated.
    """

    def __init__(
        self,
        taxonomy: TaxonomyTree | TaxonomyForest,
        fn: Callable[[Record], Iterable[str]],
    ) -> None:
        super().__init__(taxonomy)
        self._fn = fn

    def _interpret_raw(self, record: Record) -> Iterable[str]:
        return self._fn(record)
