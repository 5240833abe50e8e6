"""The ζ and semhash-row memos: same answers, kept out of pickles.

:meth:`SemanticFunction.interpret` memoises the specific concept set per
raw concept set, and :class:`SemhashEncoder` memoises one read-only row
per ζ. Neither may change an answer, hide a failure, or travel with a
checkpoint.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import SemanticFunctionError
from repro.records import Record
from repro.semantic import (
    CallableSemanticFunction,
    PatternSemanticFunction,
    SemhashEncoder,
    VoterSemanticFunction,
    cora_patterns,
)
from repro.semantic.interpretation import enforce_specificity

#: The pickled attribute names of a used encoder and semantic function,
#: as they were before either memo existed.
ENCODER_STATE = {
    "semantic_function", "bits", "_bit_index", "_interpretations", "_concept_bits",
}
VOTER_STATE = {"forest", "race_attribute", "gender_attribute"}


def voter(rid, race="", gender=""):
    return Record(rid, {"race": race, "gender": gender})


def test_interpretations_equal_specificity_of_raw_concepts(cora_small, tbib):
    semantic_function = PatternSemanticFunction(tbib, cora_patterns())
    for _ in range(2):  # a cold memo, then a warm one
        for record in cora_small:
            assert semantic_function.interpret(record) == enforce_specificity(
                tbib, semantic_function._interpret_raw(record)
            )


def test_raw_sets_of_one_size_keep_their_own_interpretation(tbib):
    raw = {"a": ("c3",), "b": ("c4",), "c": ("c1", "c3"), "d": ("c1", "c4")}
    semantic_function = CallableSemanticFunction(
        tbib, lambda record: raw[record.record_id]
    )
    answers = {rid: semantic_function.interpret(Record(rid, {})) for rid in raw}
    assert answers == {
        "a": {"c3"}, "b": {"c4"}, "c": {"c3"}, "d": {"c4"},
    }


def test_a_failed_interpretation_raises_every_time(tbib):
    semantic_function = CallableSemanticFunction(
        tbib, lambda record: (record.get("concept"),)
    )
    known, unknown = Record("k", {"concept": "c3"}), Record("u", {"concept": "zz"})
    for _ in range(3):
        assert semantic_function.interpret(known) == {"c3"}
        with pytest.raises(SemanticFunctionError, match="unknown concept"):
            semantic_function.interpret(unknown)


def test_probe_with_an_indexed_id_encodes_its_own_values():
    semantic_function = VoterSemanticFunction()
    indexed = [voter("v1", "w", "f"), voter("v2", "b", "m"), voter("v3")]
    encoder = SemhashEncoder(semantic_function, indexed)
    first = encoder.encode(indexed[0])
    probe = voter("v1", "b", "m")
    assert np.array_equal(encoder.encode(probe), encoder.encode(indexed[1]))
    assert not np.array_equal(encoder.encode(probe), first)
    assert np.array_equal(encoder.encode(indexed[0]), first)


def test_rows_are_read_only_and_the_batch_matrix_is_not(voter_small):
    semantic_function = VoterSemanticFunction()
    records = list(voter_small)
    encoder = SemhashEncoder(semantic_function, records)
    row = encoder.encode(records[0])
    assert not row.flags.writeable
    matrix = encoder.signature_matrix(records)
    assert matrix.flags.writeable
    expected = np.stack(
        [
            encoder.encode_interpretation(semantic_function.interpret(record))
            for record in records
        ]
    )
    assert np.array_equal(matrix, expected)
    assert encoder.matrix_from_interpretations([]).shape == (0, encoder.num_bits)


def test_pickles_hold_the_pre_memo_state(voter_small):
    semantic_function = VoterSemanticFunction()
    records = list(voter_small)
    encoder = SemhashEncoder(semantic_function, records)
    matrix = encoder.signature_matrix(records)
    rows = [encoder.encode(record) for record in records[:20]]
    zetas = [semantic_function.interpret(record) for record in records]

    restored = pickle.loads(pickle.dumps(encoder))
    assert set(vars(restored)) == ENCODER_STATE
    assert set(vars(restored.semantic_function)) == VOTER_STATE
    restored_function = pickle.loads(pickle.dumps(semantic_function))
    assert set(vars(restored_function)) == VOTER_STATE

    assert restored.bits == encoder.bits
    assert np.array_equal(restored.signature_matrix(records), matrix)
    for record, row in zip(records[:20], rows):
        assert np.array_equal(restored.encode(record), row)
    assert [restored_function.interpret(record) for record in records] == zetas
