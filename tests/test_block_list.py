"""The CSR block list behind every ``BlockingResult``.

* :class:`~repro.records.blocks.BlockList` reads as the tuple of id
  tuples it stands for (length, iteration, indexing, equality, hashing,
  pickling) whichever form its producer handed in;
* the banded indexes emit their blocks as CSR rows, and those blocks
  equal the per-record reference engine's tuples on every entry point
  of LSH and SA-LSH — ``block`` (a blocker's first call and a
  repeat), ``block_stream``, ``block_pair``, and after removals;
* blocking, evaluation, meta-blocking and linkage never build the
  tuples (the materialiser is patched to raise);
* a result pickles after evaluation and meta-blocking, with the same
  blocks and metrics on the other side.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import LSHBlocker, SALSHBlocker
from repro.core.base import BlockingResult, make_blocks
from repro.evaluation.metrics import evaluate_blocks, evaluate_linkage
from repro.metablocking import run_metablocking
from repro.records import Dataset, LinkedCorpus
from repro.records.blocks import BlockList
from repro.reference import per_record_blocks
from repro.semantic import (
    PatternSemanticFunction,
    SemhashEncoder,
    VoterSemanticFunction,
    cora_patterns,
)
from repro.taxonomy.builders import bibliographic_tree

TUPLES = (("a", "b"), ("c", "a", "d"), ("b", "e"))


def _csr_form() -> BlockList:
    ids = np.empty(6, dtype=object)
    ids[:] = ["a", "b", "gone", "c", "d", "e"]
    return BlockList(
        ids,
        np.array([0, 2, 5, 7], dtype=np.int64),
        np.array([0, 1, 3, 0, 4, 1, 5], dtype=np.int64),
    )


@pytest.fixture()
def no_tuples(monkeypatch):
    """Make building block tuples from the CSR an error."""

    def refuse(self):
        raise AssertionError("block tuples were materialised")

    monkeypatch.setattr(BlockList, "_materialise", refuse)


class TestSequenceSemantics:
    def test_len_reads_offsets_only(self, no_tuples):
        blocks = _csr_form()
        assert len(blocks) == 3
        assert blocks
        assert blocks.sizes().tolist() == [2, 3, 2]
        assert blocks.present_rows().tolist() == [0, 1, 3, 4, 5]

    @pytest.mark.parametrize("make", [_csr_form, lambda: BlockList.from_tuples(TUPLES)])
    def test_reads_as_the_tuple_of_tuples(self, make):
        blocks = make()
        assert blocks == TUPLES
        assert blocks == list(TUPLES)
        assert TUPLES == blocks
        assert hash(blocks) == hash(TUPLES)
        assert tuple(blocks) == TUPLES
        assert blocks[1] == ("c", "a", "d")
        assert blocks[-1] == ("b", "e")
        assert blocks[:2] == TUPLES[:2]
        assert ("b", "e") in blocks
        assert blocks != TUPLES[:2]
        assert _csr_form() == BlockList.from_tuples(TUPLES)

    def test_tuples_are_built_once(self):
        blocks = _csr_form()
        assert blocks[0] is next(iter(blocks))

    def test_from_tuples_interns_lazily(self):
        blocks = BlockList.from_tuples(TUPLES)
        assert blocks._indices is None  # nothing interned on wrap
        assert blocks.ids.tolist() == ["a", "b", "c", "d", "e"]
        assert blocks.offsets.tolist() == [0, 2, 5, 7]
        assert blocks.ids[blocks.indices].tolist() == ["a", "b", "c", "a", "d", "b", "e"]

    @pytest.mark.parametrize("make", [_csr_form, lambda: BlockList.from_tuples(TUPLES)])
    def test_pickles(self, make):
        restored = pickle.loads(pickle.dumps(make()))
        assert restored == TUPLES

    def test_empty(self):
        for empty in (BlockList.from_tuples(()), make_blocks([["solo"]])):
            assert len(empty) == 0
            assert empty == ()
            assert empty.sizes().size == 0
            assert empty.present_rows().size == 0

    def test_result_wraps_any_sequence(self):
        result = BlockingResult("x", [list(block) for block in TUPLES])
        assert isinstance(result.blocks, BlockList)
        assert result.blocks == TUPLES
        assert result.num_blocks == 3
        assert result.max_block_size == 3
        assert result.num_multiset_comparisons == 1 + 3 + 1


def _cora_salsh(**kw):
    return SALSHBlocker(
        ("authors", "title"), q=3, k=3, l=6, seed=3,
        semantic_function=PatternSemanticFunction(
            bibliographic_tree(), cora_patterns()
        ),
        w=2, mode="or", **kw,
    )


def _cora_lsh(**kw):
    return LSHBlocker(("authors", "title"), q=3, k=3, l=6, seed=3, **kw)


def _per_record(make, records, encoder=None):
    """The reference engine's blocks over ``records`` in this order."""
    dataset = Dataset(records, name="reference")
    if encoder is None:
        return per_record_blocks(make(), dataset)
    return per_record_blocks(make(), dataset, encoder=encoder)


@pytest.mark.parametrize("make", [_cora_lsh, _cora_salsh], ids=["lsh", "salsh"])
class TestBandedEntryPoints:
    def _stream(self, blocker, records, size):
        slabs = [records[i : i + size] for i in range(0, len(records), size)]
        if isinstance(blocker, SALSHBlocker):
            encoder = SemhashEncoder(blocker.semantic_function, records)
            return blocker.block_stream(slabs, encoder=encoder)
        return blocker.block_stream(slabs)

    def test_block_and_stream(self, make, cora_small):
        records = list(cora_small)
        expected = _per_record(make, records)
        assert make().block(cora_small).blocks == expected
        assert self._stream(make(), records, 41).blocks == expected

    def test_first_and_repeated_block(self, make, cora_small):
        # The repeat runs on warm ζ and semhash-row memos.
        expected = _per_record(make, list(cora_small))
        blocker = make()
        assert blocker.block(cora_small).blocks == expected
        assert blocker.block(cora_small).blocks == expected

    def test_block_pair(self, make, cora_small):
        records = list(cora_small)
        linked = LinkedCorpus(
            Dataset(records[:100], name="src"), Dataset(records[100:], name="tgt")
        )
        # Linkage indexes the target first, then streams the source in.
        expected = _per_record(make, records[100:] + records[:100])
        assert make().block_pair(linked).blocks == expected

    def test_after_removals(self, make, cora_small):
        records = list(cora_small)
        online = make().online(records[:150])
        online.add_many(records[150:])
        removed = {r.record_id for r in records[::7]}
        for record_id in sorted(removed):
            online.remove(record_id)
        survivors = [r for r in records if r.record_id not in removed]
        encoder = getattr(online, "encoder", None)
        assert online.blocks() == _per_record(make, survivors, encoder)


class TestPipelinesStayArrayNative:
    def test_dedup_pipeline(self, cora_small, no_tuples):
        result = _cora_salsh().block(cora_small)
        metrics = evaluate_blocks(result, cora_small)
        pruned = run_metablocking(result, "ECBS", "WNP")
        assert metrics.num_blocks == len(result.blocks) > 0
        assert metrics.num_multiset_pairs == result.num_multiset_comparisons
        assert len(pruned.blocks) > 0
        assert len(result.graph.ids) <= len(cora_small)

    def test_link_pipeline(self, voter_small, no_tuples):
        records = list(voter_small)
        linked = LinkedCorpus(
            Dataset(records[:300], name="src"), Dataset(records[300:], name="tgt")
        )
        blocker = SALSHBlocker(
            ("first_name", "last_name"), q=2, k=4, l=8, seed=5,
            semantic_function=VoterSemanticFunction(),
        )
        result = blocker.block_pair(linked)
        metrics = evaluate_linkage(result)
        assert metrics.num_distinct_pairs == len(result.cross_pairs) > 0
        assert metrics.num_multiset_pairs == result.num_cross_multiset_comparisons


class TestPickling:
    def test_round_trip_after_evaluation(self, cora_small):
        result = _cora_salsh().block(cora_small)
        metrics = evaluate_blocks(result, cora_small)
        pruned = run_metablocking(result, "ECBS", "WNP")
        restored = pickle.loads(pickle.dumps(result))
        assert restored.blocks == result.blocks
        assert evaluate_blocks(restored, cora_small) == metrics
        assert run_metablocking(restored, "ECBS", "WNP").blocks == pruned.blocks
        restored_pruned = pickle.loads(pickle.dumps(pruned))
        assert restored_pruned.blocks == pruned.blocks
        assert evaluate_blocks(restored_pruned, cora_small) == evaluate_blocks(
            pruned, cora_small
        )

    def test_round_trip_after_linkage(self, cora_small):
        records = list(cora_small)
        linked = LinkedCorpus(
            Dataset(records[:100], name="src"), Dataset(records[100:], name="tgt")
        )
        result = _cora_lsh().block_pair(linked)
        metrics = evaluate_linkage(result)
        restored = pickle.loads(pickle.dumps(result))
        assert restored.blocks == result.blocks
        assert restored.cross_pairs == result.cross_pairs
        assert evaluate_linkage(restored) == metrics
