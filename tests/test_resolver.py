"""The online resolver service: tiers, mutations, degenerate probes.

Covers the serving surface built on the incremental indexes
(DESIGN.md, "Resolver service"):

* confidence tiers — an exact copy of an indexed record resolves to
  ``match`` against its source entity; a perturbed copy lands in the
  uncertain region; garbage comes back ``new``;
* mutations — additions are queryable immediately, removals disappear
  from the *next* query, removed ids are retired and a failed batch add
  leaves store and index untouched;
* degenerate probes — empty records, uninterpretable records
  (:class:`~repro.errors.SemanticFunctionError`) and records whose
  semantic leaves the frozen encoder never saw all resolve to ``new``
  with zero candidates, never an exception;
* probe semantics — a probe reusing an indexed record's id is gated by
  its own fields, not by that record's cached interpretation;
* :class:`~repro.records.dataset.RecordStore` bookkeeping and the
  :func:`~repro.core.pipeline.build_resolver` pipeline entry point;
* the ``query`` / ``serve-batch`` CLI round trip.
"""

from __future__ import annotations

import csv

import pytest

from repro.cli import main
from repro.core import LSHBlocker, SALSHBlocker, build_resolver
from repro.core.pipeline import PipelineConfig
from repro.er import Resolver, SimilarityMatcher
from repro.errors import (
    ConfigurationError,
    DatasetError,
    DurabilityError,
    SemanticFunctionError,
)
from repro.records import Record, RecordStore, write_csv
from repro.semantic import (
    MissingValuePattern,
    PatternSemanticFunction,
    VoterSemanticFunction,
    cora_patterns,
)
from repro.store.journal import Journal, journal_path
from repro.taxonomy.builders import BIB_JOURNAL, BIB_THESIS, bibliographic_tree


def _cora_resolver(cora_small, **kw):
    blocker = LSHBlocker(("authors", "title"), q=3, k=3, l=6, seed=3, **kw)
    return Resolver(blocker, cora_small)


def _copy_with_id(record, new_id):
    return Record(new_id, dict(record.fields))


class TestResolveTiers:
    def test_exact_copies_match_their_entity(self, cora_small):
        resolver = _cora_resolver(cora_small)
        records = list(cora_small)[:10]
        for i, source in enumerate(records):
            outcome = resolver.resolve_one(_copy_with_id(source, f"p{i}"))
            assert outcome.tier == "match"
            assert outcome.best_score == 1.0
            best = cora_small[outcome.best_id]
            assert best.entity_id == source.entity_id

    def test_three_tiers(self, tiny_dataset):
        # match_threshold=1.0: only a perfect score is a match, so the
        # one-character typo deterministically lands in the uncertain
        # region and unrelated text below it.
        blocker = LSHBlocker(("title",), q=2, k=2, l=8, seed=0)
        matcher = SimilarityMatcher(
            {"title": "jaccard_q2"},
            match_threshold=1.0, possible_threshold=0.5,
        )
        resolver = Resolver(blocker, tiny_dataset, matcher=matcher)
        exact = resolver.resolve_one(Record("p1", {"title": "alpha beta gamma"}))
        assert exact.tier == "match"
        assert exact.best_id in ("t1", "t2")
        typo = resolver.resolve_one(Record("p2", {"title": "alpha betta gamma"}))
        assert typo.tier == "possible"
        assert 0.5 <= typo.best_score < 1.0
        garbage = resolver.resolve_one(
            Record("p3", {"title": "zzz qqq www unrelated"})
        )
        assert garbage.tier == "new"
        assert garbage.best_id is None

    def test_outcome_shape(self, cora_small):
        resolver = _cora_resolver(cora_small)
        source = list(cora_small)[0]
        outcome = resolver.resolve_one(_copy_with_id(source, "probe"))
        scores = [c.score for c in outcome.candidates]
        assert scores == sorted(scores, reverse=True)
        assert outcome.num_candidates == len(outcome.candidates)
        for candidate in outcome.candidates:
            assert candidate.label == resolver.matcher.label_for(candidate.score)
        # tier 'new' <=> no best id, on every probe
        empty = resolver.resolve_one(Record("none", {"title": ""}))
        assert empty.tier == "new" and empty.best_id is None
        assert empty.num_candidates == 0

    def test_resolve_many(self, cora_small):
        resolver = _cora_resolver(cora_small)
        probes = [
            _copy_with_id(r, f"p{i}") for i, r in enumerate(list(cora_small)[:4])
        ]
        outcomes = resolver.resolve_many(probes)
        assert [o.record_id for o in outcomes] == [p.record_id for p in probes]
        assert all(o.tier == "match" for o in outcomes)


class TestResolverMutations:
    def test_added_records_are_queryable(self, cora_small):
        records = list(cora_small)
        resolver = Resolver(
            LSHBlocker(("authors", "title"), q=3, k=3, l=6, seed=3),
            records[:250],
        )
        late = _copy_with_id(records[0], "late-1")
        assert "late-1" not in resolver
        resolver.add(late)
        assert "late-1" in resolver
        probe = _copy_with_id(records[0], "probe")
        assert "late-1" in resolver.query(probe)

    def test_remove_respected_on_next_query(self, cora_small):
        resolver = _cora_resolver(cora_small)
        source = list(cora_small)[0]
        probe = _copy_with_id(source, "probe")
        first = resolver.resolve_one(probe)
        assert first.tier == "match"
        removed = resolver.remove(first.best_id)
        assert removed.record_id == first.best_id
        assert first.best_id not in resolver
        second = resolver.resolve_one(probe)
        assert first.best_id not in {c.record_id for c in second.candidates}
        assert first.best_id not in resolver.query(probe)

    def test_retired_ids_rejected_atomically(self, cora_small):
        resolver = _cora_resolver(cora_small)
        records = list(cora_small)
        resolver.remove(records[0].record_id)
        size = len(resolver)
        fresh = _copy_with_id(records[1], "fresh-1")
        with pytest.raises(DatasetError, match="retired"):
            resolver.add_many([fresh, records[0]])
        # Nothing from the failed batch landed in store or index.
        assert len(resolver) == size
        assert "fresh-1" not in resolver
        assert "fresh-1" not in resolver.query(
            _copy_with_id(records[1], "probe")
        )
        resolver.add(fresh)  # the valid half is still addable
        assert "fresh-1" in resolver

    def test_duplicate_ids_rejected_atomically(self, cora_small):
        resolver = _cora_resolver(cora_small)
        records = list(cora_small)
        size = len(resolver)
        with pytest.raises(DatasetError, match="duplicate"):
            resolver.add_many(
                [_copy_with_id(records[0], "dup-1"), records[1]]
            )
        assert len(resolver) == size
        assert "dup-1" not in resolver

    def test_offline_blocker_rejected(self, cora_small):
        class Batchy:
            attributes = ("title",)

        with pytest.raises(ConfigurationError, match="online"):
            Resolver(Batchy(), cora_small)


#: A deliberately incomplete Table 1: only journal records interpret.
def _journal_only_sf():
    journal = MissingValuePattern(
        present=("journal",), absent=(), concepts=(BIB_JOURNAL,)
    )
    thesis = MissingValuePattern(
        present=("institution",), absent=("journal",), concepts=(BIB_THESIS,)
    )
    return PatternSemanticFunction(bibliographic_tree(), [journal, thesis])


def _journal_resolver(state_dir=None):
    """A SA-LSH resolver over twelve journal records, its encoder
    frozen on them."""
    corpus = [
        Record(
            f"j{i}",
            {"title": f"alpha beta paper {i % 3}", "journal": "J. Test"},
        )
        for i in range(12)
    ]
    blocker = SALSHBlocker(
        ("title",), q=2, k=2, l=6, seed=0,
        semantic_function=_journal_only_sf(), w="all", mode="or",
    )
    return Resolver(blocker, corpus, state_dir=state_dir)


class TestUnseenSemantics:
    """Regression: probes outside the frozen encoder's world resolve to
    empty candidates instead of raising."""

    def test_uninterpretable_probe_resolves_new(self):
        resolver = _journal_resolver()
        # No pattern matches (no journal, no institution) and there is
        # no fallback: the semantic function raises for this record.
        probe = Record("probe", {"title": "alpha beta paper 0"})
        assert resolver.query(probe) == []
        outcome = resolver.resolve_one(probe)
        assert outcome.tier == "new"
        assert outcome.num_candidates == 0

    def test_unseen_leaves_resolve_new(self):
        resolver = _journal_resolver()
        # Interprets fine (thesis pattern) but every leaf under C9/C10
        # is absent from the encoder frozen on journal-only records:
        # the all-zero semhash passes no gate.
        probe = Record(
            "probe", {"title": "alpha beta paper 0", "institution": "MIT"}
        )
        assert resolver.query(probe) == []
        assert resolver.resolve_one(probe).tier == "new"

    def test_interpretable_probe_still_matches(self):
        resolver = _journal_resolver()
        probe = Record(
            "probe", {"title": "alpha beta paper 0", "journal": "J. Test"}
        )
        outcome = resolver.resolve_one(probe)
        assert outcome.tier == "match"


class TestDurableAddOrder:
    """A durable add journals only what the index took, and replay
    names the entry it cannot apply."""

    _uninterpretable = Record("x", {"title": "alpha beta paper 0"})

    def test_batch_the_index_rejects_is_not_journaled(self, tmp_path):
        state = tmp_path / "state"
        resolver = _journal_resolver(state)
        with pytest.raises(SemanticFunctionError):
            resolver.add(self._uninterpretable)
        assert resolver.last_seq == 0
        assert len(resolver) == 12
        assert resolver.index.num_live == 12
        resolver.close()
        with Resolver.open(state) as recovered:
            assert len(recovered) == 12
            assert recovered.index.num_live == 12

    def test_failed_journal_append_takes_the_batch_back(
        self, tmp_path, monkeypatch
    ):
        resolver = _journal_resolver(tmp_path / "state")
        probe = Record("probe", {"title": "alpha beta paper 0", "journal": "J"})
        answer, blocks = resolver.query(probe), resolver.index.blocks()

        def failing_append(self, op, payload):
            raise OSError("no space left on device")

        monkeypatch.setattr(Journal, "append", failing_append)
        twin = Record("y", {"title": "alpha beta paper 0", "journal": "J"})
        with pytest.raises(OSError):
            resolver.add(twin)
        assert len(resolver) == 12
        assert resolver.index.num_live == 12
        assert resolver.query(probe) == answer
        assert resolver.index.blocks() == blocks
        assert resolver.index.is_retired("y")
        resolver.close()

    def test_unreadable_frame_fails_replay_naming_its_seq(self, tmp_path):
        state = tmp_path / "state"
        _journal_resolver(state).close()
        journal = Journal.open(journal_path(state))
        record = self._uninterpretable
        seq = journal.append(
            "add", {"records": [[record.record_id, dict(record.fields), None]]}
        )
        journal.close()
        with pytest.raises(DurabilityError, match=f"journal entry {seq} "):
            Resolver.open(state)


class TestProbeSemantics:
    """Regression: a probe is interpreted from its own fields, even when
    it carries the id of an indexed record with other values."""

    def test_probe_reusing_an_indexed_id(self, voter_small):
        blocker = SALSHBlocker(
            ("first_name", "last_name"), q=2, k=9, l=15, seed=3,
            semantic_function=VoterSemanticFunction(),
        )
        resolver = Resolver(blocker, voter_small)
        encoder = resolver.index.encoder
        records = list(voter_small)
        source = records[0]
        # An indexed record sharing no semhash bit with the source: its
        # cached ζ would gate the probe away from the source's buckets.
        other = next(
            r for r in records
            if not (encoder.encode(r) & encoder.encode(source)).any()
        )
        probe = Record(other.record_id, dict(source.fields))
        fresh = Record("probe-fresh", dict(source.fields))
        assert source.record_id in resolver.query(probe)
        assert resolver.query(probe) == resolver.query(fresh)
        outcome, expected = resolver.resolve_one(probe), resolver.resolve_one(fresh)
        assert outcome.tier == expected.tier == "match"
        assert outcome.candidates == expected.candidates


class TestRecordStore:
    def test_basic_bookkeeping(self):
        store = RecordStore([Record("a", {"x": "1"})], name="s")
        store.add(Record("b", {"x": "2"}))
        assert len(store) == 2 and "a" in store and "nope" not in store
        assert store["b"].get("x") == "2"
        with pytest.raises(DatasetError):
            store["nope"]
        removed = store.remove("a")
        assert removed.record_id == "a" and "a" not in store
        with pytest.raises(KeyError):
            store.remove("a")
        with pytest.raises(DatasetError, match="duplicate"):
            store.add(Record("b", {"x": "3"}))

    def test_add_many_atomic(self):
        store = RecordStore([Record("a", {})])
        with pytest.raises(DatasetError, match="duplicate"):
            store.add_many([Record("b", {}), Record("b", {})])
        with pytest.raises(DatasetError, match="duplicate"):
            store.add_many([Record("c", {}), Record("a", {})])
        assert sorted(r.record_id for r in store) == ["a"]

    def test_allocate_id_skips_collisions(self):
        store = RecordStore([Record("r1", {}), Record("r3", {})])
        first = store.allocate_id()
        assert first == "r2"
        store.add(Record(first, {}))
        assert store.allocate_id() == "r4"
        assert store.allocate_id(prefix="q") == "q5"

    def test_snapshot_preserves_order(self):
        records = [Record(f"r{i}", {"x": str(i)}) for i in range(5)]
        store = RecordStore(records)
        store.remove("r2")
        snapshot = store.snapshot(name="snap")
        assert [r.record_id for r in snapshot] == ["r0", "r1", "r3", "r4"]
        assert snapshot.name == "snap"


class TestBuildResolver:
    def test_lsh_and_salsh(self, cora_small):
        config = PipelineConfig(attributes=("authors", "title"), seed=3)
        for sf in (None, PatternSemanticFunction(
            bibliographic_tree(), cora_patterns()
        )):
            resolver = build_resolver(cora_small, config, sf)
            source = list(cora_small)[0]
            outcome = resolver.resolve_one(_copy_with_id(source, "probe"))
            assert outcome.tier == "match"
            assert cora_small[outcome.best_id].entity_id == source.entity_id


class TestCLI:
    def test_query_round_trip(self, tmp_path, tiny_dataset, capsys):
        corpus = tmp_path / "corpus.csv"
        write_csv(tiny_dataset, corpus)
        probes = tmp_path / "probes.csv"
        with open(probes, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["record_id", "title"])
            writer.writerow(["p1", "alpha beta gamma"])
            writer.writerow(["p2", ""])
        out = tmp_path / "results.csv"
        rc = main([
            "query", "--input", str(corpus), "--queries", str(probes),
            "--technique", "lsh", "--attributes", "title",
            "--q", "2", "--k", "2", "--l", "8", "--out", str(out),
        ])
        assert rc == 0
        rows = {r["query_id"]: r for r in csv.DictReader(open(out))}
        assert rows["p1"]["tier"] == "match"
        assert rows["p1"]["best_id"] in ("t1", "t2")
        assert rows["p2"]["tier"] == "new" and rows["p2"]["best_id"] == ""

    def test_serve_batch_round_trip(self, tmp_path, tiny_dataset):
        corpus = tmp_path / "corpus.csv"
        write_csv(tiny_dataset, corpus)
        ops = tmp_path / "ops.csv"
        with open(ops, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["op", "record_id", "title"])
            writer.writerow(["query", "q1", "kappa lambda mu"])
            writer.writerow(["remove", "t7", ""])
            writer.writerow(["query", "q2", "kappa lambda mu"])
        out = tmp_path / "results.csv"
        rc = main([
            "serve-batch", "--input", str(corpus), "--ops", str(ops),
            "--technique", "lsh", "--attributes", "title",
            "--q", "2", "--k", "2", "--l", "8", "--out", str(out),
        ])
        assert rc == 0
        rows = list(csv.DictReader(open(out)))
        assert [r["query_id"] for r in rows] == ["q1", "q2"]
        assert rows[0]["tier"] == "match" and rows[0]["best_id"] == "t7"
        # t7 was removed between the two queries: its sole co-blocker
        # is gone, so the same probe now resolves as a new entity.
        assert rows[1]["tier"] == "new" and rows[1]["best_id"] == ""
