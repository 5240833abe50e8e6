"""Incremental ≡ rebuild equivalence for the four online indexes.

Each blocker's ``online()`` index promises that after *any* interleaving
of ``add_many`` / ``remove`` calls (DESIGN.md, "Resolver service"):

* :meth:`blocks` equals a from-scratch rebuild over the surviving
  records in insertion order — the batch ``block()`` for LSH, MP-LSH
  and LSH-Forest, and ``block_stream`` under the index's frozen encoder
  for SA-LSH (a batch rebuild would re-derive the semhash bit set from
  the survivors alone, which is a different, not-incrementally-
  reachable configuration);
* :meth:`query` returns exactly what a freshly built index over the
  survivors would return for the same probe — live ids only, never the
  probe itself, no duplicates;
* removed ids are retired permanently and re-adding them raises;
* for the banded indexes (LSH, SA-LSH), a probe answered through the
  memoised hash columns and gate suffixes equals, list for list, the
  uncached reference path (``MinHasher.signature`` and one
  ``gate_suffixes`` call per table) — for foreign, empty and repeated
  probes, and with the hash-column budget shrunk to a few rows.

The interleavings are seeded-random, so every run replays the same op
sequences; the sharded variants assert the same contract with
``processes=2`` and on a warm :class:`~repro.utils.parallel.ShardPool`.
"""

from __future__ import annotations

import gc

import pytest

from repro.core import (
    LSHBlocker,
    LSHForestBlocker,
    MultiProbeLSHBlocker,
    SALSHBlocker,
)
from repro.errors import DatasetError, SemanticFunctionError
from repro.lsh.bands import record_band_keys
from repro.minhash import minhash as minhash_module
from repro.records import Dataset, Record
from repro.semantic import (
    PatternSemanticFunction,
    SemhashEncoder,
    VoterSemanticFunction,
    cora_patterns,
)
from repro.taxonomy.builders import bibliographic_tree
from repro.utils.parallel import ShardPool
from repro.utils.rand import rng_from_seed

BLOCKER_KINDS = ("lsh", "salsh", "mplsh", "forest")

#: Per-corpus blocker parameters (matching the streamed SA-LSH suite).
_PARAMS = {
    "fig1": dict(attrs=("title", "authors"), q=3, k=2, l=3, seed=1),
    "cora": dict(attrs=("authors", "title"), q=3, k=3, l=6, seed=3),
    "voter": dict(attrs=("first_name", "last_name"), q=2, k=3, l=5, seed=3),
}


def _semantic_function(corpus_name, fig1_sf=None):
    if corpus_name == "fig1":
        return fig1_sf
    if corpus_name == "cora":
        return PatternSemanticFunction(bibliographic_tree(), cora_patterns())
    return VoterSemanticFunction()


def _blocker(kind, corpus_name, fig1_sf=None, **kw):
    params = _PARAMS[corpus_name]
    base = dict(q=params["q"], k=params["k"], l=params["l"],
                seed=params["seed"], **kw)
    attrs = params["attrs"]
    if kind == "lsh":
        return LSHBlocker(attrs, **base)
    if kind == "salsh":
        return SALSHBlocker(
            attrs, semantic_function=_semantic_function(corpus_name, fig1_sf),
            w="all" if corpus_name == "fig1" else 2, mode="or", **base,
        )
    if kind == "mplsh":
        return MultiProbeLSHBlocker(attrs, **base)
    return LSHForestBlocker(attrs, **base)


def _rebuild_blocks(blocker, online, survivors):
    """Blocks of a from-scratch rebuild over the surviving records."""
    if isinstance(blocker, SALSHBlocker):
        # The incremental index encodes against its frozen bit set;
        # the honest rebuild is the streamed path under that encoder.
        return blocker.block_stream([survivors], encoder=online.encoder).blocks
    return blocker.block(Dataset(survivors, name="rebuild")).blocks


def _fresh_online(blocker, online, survivors):
    if isinstance(blocker, SALSHBlocker):
        return blocker.online(survivors, encoder=online.encoder)
    return blocker.online(survivors)


def _reference_query(blocker, online, probe):
    """The uncached probe path of a banded index: ``MinHasher.signature``
    and one ``gate_suffixes`` call per table, fed to ``query_keys``."""
    keys = record_band_keys(
        blocker.hasher.signature(blocker.shingler.shingle_ids(probe)),
        blocker.k, blocker.l,
    )
    gate = None
    if isinstance(blocker, SALSHBlocker):
        try:
            semhash = online.encoder.encode(probe)
        except SemanticFunctionError:
            return []
        gates = blocker._gates(online.encoder.num_bits)

        def gate(table, _record_id):
            return gates.gate_suffixes(table, semhash)

    return online._index.query_keys(keys, gate, record_id=probe.record_id)


def _check_equivalent(blocker, online, inserted, removed, probes):
    survivors = [r for r in inserted if r.record_id not in removed]
    assert online.blocks() == _rebuild_blocks(blocker, online, survivors)
    rebuilt = _fresh_online(blocker, online, survivors)
    live = {r.record_id for r in survivors}
    banded = type(blocker) in (LSHBlocker, SALSHBlocker)
    for probe in probes:
        candidates = online.query(probe)
        assert sorted(candidates) == sorted(rebuilt.query(probe))
        assert len(candidates) == len(set(candidates))
        assert set(candidates) <= live - {probe.record_id}
        if banded:
            assert candidates == _reference_query(blocker, online, probe)


def _edge_probes(blocker, record):
    """Probes beside the sampled records: grams the corpus never saw,
    partly and wholly, and no grams at all; other fields are
    ``record``'s, so the semantic function still interprets them."""
    fields = dict(record.fields)
    partly = {a: fields.get(a, "") + " zqxj wvyk" for a in blocker.attributes}
    wholly = {a: "zqxjwvyk" for a in blocker.attributes}
    empty = {a: "" for a in blocker.attributes}
    return [
        Record(f"probe-{name}", {**fields, **values})
        for name, values in (
            ("partly-foreign", partly), ("foreign", wholly), ("empty", empty),
        )
    ]


def _exercise(blocker, dataset, seed, *, num_ops=14):
    """Replay one seeded add/remove interleaving, checking equivalence
    twice mid-run and once at the end."""
    records = list(dataset)
    rng = rng_from_seed(seed, "incremental-ops", dataset.name)
    rng.shuffle(records)
    split = max(2, (2 * len(records)) // 3)
    initial, pending = records[:split], records[split:]
    online = blocker.online(initial)
    inserted = list(initial)
    removed: set[str] = set()
    probes = rng.sample(records, min(6, len(records)))
    # Foreign and empty probes, then the first probe again, which the
    # probe memos answer the second time.
    probes += _edge_probes(blocker, records[0]) + probes[:1]
    check_at = set(rng.sample(range(num_ops), 2))
    for step in range(num_ops):
        op = rng.choice(("add", "add", "remove"))
        if op == "add" and pending:
            n = rng.randint(1, min(8, len(pending)))
            slab, pending = pending[:n], pending[n:]
            online.add_many(slab)
            inserted.extend(slab)
        elif len(inserted) - len(removed) > 2:
            live = [r for r in inserted if r.record_id not in removed]
            victim = rng.choice(live)
            online.remove(victim.record_id)
            removed.add(victim.record_id)
        if step in check_at:
            _check_equivalent(blocker, online, inserted, removed, probes)
    assert removed, "interleaving never removed anything"
    _check_equivalent(blocker, online, inserted, removed, probes)
    return online


class TestIncrementalEqualsRebuild:
    @pytest.mark.parametrize("kind", BLOCKER_KINDS)
    def test_fig1(self, fig1, fig1_sf, kind):
        _exercise(_blocker(kind, "fig1", fig1_sf), fig1, seed=11)

    @pytest.mark.parametrize("kind", BLOCKER_KINDS)
    def test_cora(self, cora_small, kind):
        _exercise(_blocker(kind, "cora"), cora_small, seed=12)

    @pytest.mark.parametrize("kind", BLOCKER_KINDS)
    def test_voter(self, voter_small, kind):
        _exercise(_blocker(kind, "voter"), voter_small, seed=13)

    @pytest.mark.parametrize("kind", BLOCKER_KINDS)
    def test_slab_split_invariance(self, cora_small, kind):
        # One bulk insertion vs record-by-record adds: identical end
        # state (SA-LSH under a shared frozen encoder — record-by-record
        # freezing would fix the bit set from the first record alone).
        records = list(cora_small)[:60]
        blocker = _blocker(kind, "cora")
        bulk = blocker.online(records)
        if kind == "salsh":
            single = blocker.online((), encoder=bulk.encoder)
        else:
            single = blocker.online(())
        for record in records:
            single.add(record)
        assert bulk.blocks() == single.blocks()
        # Candidate sets are slab-layout-independent (ordering follows
        # the physical slab walk, so only the set is contractual).
        for probe in records[:5]:
            assert sorted(bulk.query(probe)) == sorted(single.query(probe))


class TestProbeMemos:
    """The memoised probe path of the banded indexes (DESIGN.md,
    "Resolver service")."""

    @pytest.mark.parametrize("kind", ("lsh", "salsh"))
    def test_overflowing_hash_column_budget(self, voter_small, kind, monkeypatch):
        # Room for three shingle ids: nearly every probe mixes cached
        # columns with ones hashed afresh.
        blocker = _blocker(kind, "voter")
        monkeypatch.setattr(
            minhash_module, "_HASH_COLUMN_BYTES", 3 * 8 * blocker.k * blocker.l
        )
        _exercise(blocker, voter_small, seed=14)

    @pytest.mark.parametrize("collecting", (True, False))
    def test_fold_restores_the_callers_gc_state(self, cora_small, collecting):
        records = list(cora_small)[:40]
        online = _blocker("salsh", "cora").online(records[:30])
        was_collecting = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            for record in records[30:33]:
                online.add(record)
                online.query(record)  # folds the new slab
                assert gc.isenabled() is collecting
        finally:
            (gc.enable if was_collecting else gc.disable)()


class TestShardedRuntime:
    @pytest.mark.parametrize("kind", ("lsh", "salsh"))
    def test_processes_two(self, cora_small, kind):
        _exercise(_blocker(kind, "cora", processes=2), cora_small, seed=21)

    @pytest.mark.parametrize("kind", ("lsh", "salsh"))
    def test_warm_pool(self, cora_small, kind):
        with ShardPool(2) as pool:
            _exercise(
                _blocker(kind, "cora", processes=2, pool=pool),
                cora_small, seed=22,
            )


class TestMutationContract:
    @pytest.mark.parametrize("kind", BLOCKER_KINDS)
    def test_removed_ids_are_retired(self, cora_small, kind):
        records = list(cora_small)[:30]
        online = _blocker(kind, "cora").online(records)
        victim = records[0]
        online.remove(victim.record_id)
        assert online.is_retired(victim.record_id)
        assert not online.is_retired(records[1].record_id)
        with pytest.raises(KeyError):
            online.add(victim)
        with pytest.raises(KeyError):
            online.remove(victim.record_id)  # already gone
        with pytest.raises(KeyError):
            online.remove("never-indexed")
        assert online.num_live == len(records) - 1

    @pytest.mark.parametrize("kind", BLOCKER_KINDS)
    def test_query_never_mutates(self, cora_small, kind, fig1):
        records = list(cora_small)[:30]
        online = _blocker(kind, "cora").online(records)
        before = online.blocks()
        probes = records[:3] + list(fig1)[:2]  # known + foreign records
        for probe in probes:
            online.query(probe)
            online.query(probe)
        assert online.blocks() == before
        assert online.num_live == len(records)

    @pytest.mark.parametrize("kind", BLOCKER_KINDS)
    def test_empty_record_queries_empty(self, cora_small, kind):
        params = _PARAMS["cora"]
        online = _blocker(kind, "cora").online(list(cora_small)[:50])
        probe = Record("probe-empty", {a: "" for a in params["attrs"]})
        assert online.query(probe) == []


def _stream(blocker, slabs, records):
    """``block_stream`` — SA-LSH under an encoder frozen from ``records``."""
    if isinstance(blocker, SALSHBlocker):
        encoder = SemhashEncoder(blocker.semantic_function, records)
        return blocker.block_stream(slabs, encoder=encoder)
    return blocker.block_stream(slabs)


class TestDuplicateIds:
    """A repeated id is rejected on every insertion path, never indexed
    twice."""

    @pytest.mark.parametrize("kind", BLOCKER_KINDS)
    def test_within_a_slab(self, cora_small, kind):
        records = list(cora_small)[:30]
        online = _blocker(kind, "cora").online()
        with pytest.raises(DatasetError, match=repr(records[0].record_id)):
            online.add_many(records + [records[0]])
        assert online.num_live == 0
        assert online.blocks() == ()
        if kind == "salsh":
            assert online.encoder is None  # nothing frozen from the slab

    @pytest.mark.parametrize("kind", BLOCKER_KINDS)
    def test_across_add_many_calls(self, cora_small, kind):
        records = list(cora_small)[:30]
        online = _blocker(kind, "cora").online(records)
        before = online.blocks()
        with pytest.raises(DatasetError, match=repr(records[0].record_id)):
            online.add_many([records[0]])
        assert online.num_live == len(records)
        assert online.blocks() == before

    @pytest.mark.parametrize("kind", BLOCKER_KINDS)
    def test_across_stream_slabs(self, cora_small, kind):
        records = list(cora_small)[:31]
        slabs = [records[:30], [records[0], records[30]]]
        with pytest.raises(DatasetError, match=repr(records[0].record_id)):
            _stream(_blocker(kind, "cora"), slabs, records)


class TestDerivedEntryPoints:
    """``block``, ``block_stream`` and ``block_pair`` derive from one
    online index on every blocker."""

    #: Parameters each blocker reports beyond k, l and q.
    _EXTRA_PARAMETERS = {
        "lsh": (),
        "salsh": ("w", "mode"),
        "mplsh": ("num_probes",),
        "forest": ("max_block_size",),
    }

    @pytest.mark.parametrize("slab_size", (1, 37, None))
    @pytest.mark.parametrize("kind", BLOCKER_KINDS)
    def test_stream_equals_block(self, cora_small, kind, slab_size):
        records = list(cora_small)
        size = slab_size or len(records)
        slabs = (records[i : i + size] for i in range(0, len(records), size))
        blocker = _blocker(kind, "cora")
        streamed = _stream(blocker, slabs, records)
        assert streamed.blocks == blocker.block(cora_small).blocks
        assert streamed.metadata["engine"] == "streaming"
        assert streamed.metadata["num_records"] == len(records)
        assert streamed.metadata["num_slabs"] == -(-len(records) // size)

    @pytest.mark.parametrize("kind", BLOCKER_KINDS)
    def test_metadata_carries_runtime_and_parameters(self, cora_small, kind):
        records = list(cora_small)
        half = len(records) // 2
        blocker = _blocker(kind, "cora")
        results = {
            "batch": blocker.block(cora_small),
            "sharded": _blocker(kind, "cora", processes=2).block(cora_small),
            "streaming": _stream(blocker, [records], records),
            "linkage-online": blocker.block_pair(
                Dataset(records[:half], name="src"),
                Dataset(records[half:], name="tgt"),
            ),
        }
        names = ("k", "l", "q") + self._EXTRA_PARAMETERS[kind]
        for engine, result in results.items():
            metadata = result.metadata
            assert metadata["engine"] == engine
            assert metadata["processes"] == (2 if engine == "sharded" else 1)
            assert metadata["pooled"] is False
            for name in names:
                assert metadata[name] == getattr(blocker, name), (engine, name)
            if kind == "salsh":
                assert metadata["num_semantic_bits"] >= 1
