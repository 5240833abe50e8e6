"""The running example of the paper's Fig. 1 (records r1-r6).

Six bibliographic records about cascade-correlation learning: r1, r2
are conference versions of the same paper, r6 is a semantically
ambiguous copy of it, r4 is the technical-report edition (a different
entity under the paper's semantics), r3 a different genetic-algorithm
paper and r5 an unrelated technical report.

Interpretations follow Example 4.2: ζ(r1)={c4}, ζ(r2)={c2}, ζ(r3)={c4},
ζ(r4)={c7}, ζ(r5)={c7}, ζ(r6)={c0}.
"""

from __future__ import annotations

from repro.records.dataset import Dataset
from repro.records.record import Record
from repro.semantic.interpretation import CallableSemanticFunction
from repro.taxonomy.builders import bibliographic_tree

#: PUBLISHER value -> concept of ``tbib`` (Example 4.2).
_PUBLISHER_CONCEPTS = {
    "NISPS Proceedings": "c4",
    "Neural Information Systems": "c2",
    "Proceedings on Neural Ntw.": "c4",
    "TR": "c7",
    "Technical Report (TR)": "c7",
    "": "c0",
}


def fig1_dataset() -> Dataset:
    """The six records of Fig. 1 with ground-truth entities."""
    rows = [
        ("r1", "The cascade-correlation learning architecture",
         "E. Fahlman and C. Lebiere", "NISPS Proceedings", "cascade"),
        ("r2", "Cascade correlation learning architecture",
         "E. Fahlman & C. Lebiere", "Neural Information Systems", "cascade"),
        ("r3", "A genetic cascade correlation learning algorithm",
         "", "Proceedings on Neural Ntw.", "genetic"),
        ("r4", "The cascade corelation learning architecture",
         "Fahlman, S., & Lebiere, C.", "TR", "cascade-tr"),
        ("r5", "Controlled growth of cascade correlation nets",
         "", "Technical Report (TR)", "growth-tr"),
        ("r6", "The cascade-correlation learn architecture",
         "Lebiere, C. and Fahlman, S.", "", "cascade"),
    ]
    records = [
        Record(
            record_id=record_id,
            fields={"title": title, "authors": authors, "publisher": publisher},
            entity_id=entity,
        )
        for record_id, title, authors, publisher, entity in rows
    ]
    return Dataset(records, name="fig1")


def _interpret_publisher(record):
    # Module-level (not a closure) so the semantic function pickles
    # with a checkpointed SA-LSH blocker.
    concept = _PUBLISHER_CONCEPTS.get(record.get("publisher"), "c0")
    return (concept,)


def fig1_semantic_function() -> CallableSemanticFunction:
    """Semantic function mapping PUBLISHER values to ``tbib`` concepts."""
    return CallableSemanticFunction(bibliographic_tree(), _interpret_publisher)
