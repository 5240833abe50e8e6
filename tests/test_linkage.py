"""Cross-dataset record linkage as a view of the union corpus.

Covers the CSR cross-pair enumeration kernel, :class:`LinkedCorpus`
semantics (its source-first union and the boundary |S|), cross pairs
as union-codec keys — property-tested against the set-based oracles
of :mod:`repro.reference` —, ``block_pair`` on all four blockers (no
within-side pairs, equality with the filtered ``block(S ∪ T)``
oracle), clean-clean evaluation (array ≡ reference engines), the
linked CSV codec's line-numbered errors, and the linkage resolver
mode.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.core import (
    BipartiteBlockingResult,
    BlockingResult,
    LSHBlocker,
    LSHForestBlocker,
    MultiProbeLSHBlocker,
    SALSHBlocker,
    as_bipartite,
)
from repro.datasets import NCVoterLikeGenerator
from repro.errors import ConfigurationError, DatasetError, EvaluationError
from repro.er import Resolver, SimilarityMatcher
from repro.evaluation import evaluate_linkage
from repro.records import (
    Dataset,
    LinkedCorpus,
    Record,
    decode_pair_keys,
    enumerate_csr_cross_pairs,
    pairs_from_keys,
    read_linked_csv,
    write_linked_csv,
)
from repro.utils.rand import rng_from_seed

BLOCKER_KINDS = ("lsh", "salsh", "mplsh", "forest")


def _blocker(kind, corpus, fig1_sf=None):
    if corpus == "fig1":
        base = dict(q=3, k=2, l=3, seed=1)
        attrs = ("title", "authors")
    else:  # cora
        base = dict(q=3, k=3, l=6, seed=3)
        attrs = ("authors", "title")
    if kind == "lsh":
        return LSHBlocker(attrs, **base)
    if kind == "salsh":
        if corpus == "fig1":
            sf, w = fig1_sf, "all"
        else:
            from repro.semantic import PatternSemanticFunction, cora_patterns
            from repro.taxonomy.builders import bibliographic_tree

            sf = PatternSemanticFunction(bibliographic_tree(), cora_patterns())
            w = 2
        return SALSHBlocker(
            attrs, semantic_function=sf, w=w, mode="or", **base
        )
    if kind == "mplsh":
        return MultiProbeLSHBlocker(attrs, **base)
    return LSHForestBlocker(attrs, **base)


def _split(dataset, seed, name):
    """Alternating-record split into a (source, target) LinkedCorpus."""
    records = list(dataset)
    rng = rng_from_seed(seed, "linkage-split", name)
    rng.shuffle(records)
    cut = len(records) // 3
    return LinkedCorpus(
        Dataset(records[:cut], name=f"{name}-src"),
        Dataset(records[cut:], name=f"{name}-tgt"),
    )


def _oracle_cross_pairs(blocker, linked):
    """Filtered block(S ∪ T): cross-side pairs of each union block."""
    result = blocker.block(linked.union)
    source_ids = set(linked.source.record_ids)
    pairs = set()
    for block in result.blocks:
        src = [r for r in block if r in source_ids]
        tgt = [r for r in block if r not in source_ids]
        pairs.update((a, b) for a in src for b in tgt)
    return pairs


class TestEnumerateCsrCrossPairs:
    def _brute(self, offsets, indices, mask):
        pairs = set()
        for g in range(len(offsets) - 1):
            members = indices[offsets[g] : offsets[g + 1]]
            src = [m for m in members if mask[m]]
            tgt = [m for m in members if not mask[m]]
            pairs.update((a, b) for a in src for b in tgt)
        return pairs

    def test_matches_brute_force(self):
        rng = rng_from_seed(5, "csr-cross")
        n = 40
        mask = np.array([rng.random() < 0.4 for _ in range(n)])
        indices, offsets = [], [0]
        for _ in range(12):
            members = rng.sample(range(n), rng.randint(0, 8))
            indices.extend(members)
            offsets.append(len(indices))
        offsets = np.array(offsets)
        indices = np.array(indices, dtype=np.int64)
        src, tgt = enumerate_csr_cross_pairs(offsets, indices, mask)
        assert mask[src].all() and not mask[tgt].any()
        got = set(zip(src.tolist(), tgt.tolist()))
        assert got == self._brute(offsets, indices, mask)

    def test_single_side_groups_emit_nothing(self):
        offsets = np.array([0, 3, 5])
        indices = np.array([0, 1, 2, 3, 4])
        all_source = np.array([True] * 5)
        src, tgt = enumerate_csr_cross_pairs(offsets, indices, all_source)
        assert src.size == 0 and tgt.size == 0

    def test_empty_layout(self):
        src, tgt = enumerate_csr_cross_pairs(
            np.array([0]), np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        )
        assert src.size == 0 and tgt.size == 0


def _small_linked():
    src = Dataset(
        [Record(f"s{i}", {"t": f"row {i}"}, entity_id=f"e{i}")
         for i in range(3)],
        name="left",
    )
    tgt = Dataset(
        [Record(f"t{i}", {"t": f"row {i}"}, entity_id=f"e{i % 2}")
         for i in range(4)],
        name="right",
    )
    return LinkedCorpus(src, tgt)


class TestLinkedCorpus:
    def test_overlapping_ids_rejected(self):
        shared = [Record("x1", {"t": "a"})]
        with pytest.raises(DatasetError, match="x1"):
            LinkedCorpus(Dataset(shared), Dataset(list(shared)))

    def test_union_source_first(self):
        linked = _small_linked()
        ids = [r.record_id for r in linked.union]
        assert ids == ["s0", "s1", "s2", "t0", "t1", "t2", "t3"]

    def test_total_pairs_is_cross_product(self):
        assert _small_linked().total_pairs == 3 * 4

    def test_true_matches_bipartite_only(self):
        linked = _small_linked()
        # e0 -> s0 x {t0, t2}; e1 -> s1 x {t1, t3}; e2 only on source.
        assert linked.true_matches == {
            ("s0", "t0"), ("s0", "t2"), ("s1", "t1"), ("s1", "t3"),
        }
        assert linked.num_true_matches == 4

    def test_keys_decode_to_pairs(self):
        linked = _small_linked()
        decoded = pairs_from_keys(linked.true_match_keys, linked.union.record_ids)
        assert set(decoded) == linked.true_matches

    def test_truth_keys_are_the_unions_cross_band(self):
        linked = _small_linked()
        # Union positions: s0..s2 are 0..2, t0..t3 are 3..6; |S| = 3.
        lo, hi = decode_pair_keys(linked.true_match_keys)
        assert list(zip(lo.tolist(), hi.tolist())) == [(0, 3), (0, 5), (1, 4), (1, 6)]
        union_keys = linked.union.true_match_keys
        assert np.isin(linked.true_match_keys, union_keys).all()
        # The within-target pairs (t0, t2) and (t1, t3) stay out.
        assert union_keys.size == linked.true_match_keys.size + 2


@pytest.mark.parametrize("kind", BLOCKER_KINDS)
class TestBlockPair:
    def test_fig1_no_within_side_pairs(self, fig1, fig1_sf, kind):
        linked = _split(fig1, seed=2, name="fig1")
        result = _blocker(kind, "fig1", fig1_sf).block_pair(linked)
        assert isinstance(result, BipartiteBlockingResult)
        assert result.linked is linked
        for sid, tid in result.cross_pairs:
            assert sid in linked.source and tid in linked.target

    def test_fig1_equals_filtered_union_oracle(self, fig1, fig1_sf, kind):
        linked = _split(fig1, seed=2, name="fig1")
        blocker = _blocker(kind, "fig1", fig1_sf)
        result = blocker.block_pair(linked)
        assert set(result.cross_pairs) == _oracle_cross_pairs(blocker, linked)
        assert result.cross_pairs == reference.cross_pairs(result)

    def test_cora_equals_oracle(self, cora_small, kind):
        linked = _split(cora_small, seed=9, name="cora")
        result = _blocker(kind, "cora").block_pair(linked)
        oracle = _oracle_cross_pairs(_blocker(kind, "cora"), linked)
        assert set(result.cross_pairs) == oracle

    def test_two_datasets_equal_linked_corpus(self, fig1, fig1_sf, kind):
        linked = _split(fig1, seed=2, name="fig1")
        blocker = _blocker(kind, "fig1", fig1_sf)
        split = blocker.block_pair(linked.source, linked.target)
        assert split.blocks == blocker.block_pair(linked).blocks
        with pytest.raises(DatasetError):
            blocker.block_pair(linked, linked.target)

    def test_evaluate_linkage_engines_agree(self, cora_small, kind):
        linked = _split(cora_small, seed=9, name="cora")
        result = _blocker(kind, "cora").block_pair(linked)
        fast = evaluate_linkage(result)
        slow = reference.evaluate_linkage(result)
        assert fast == slow
        assert 0.0 <= fast.pc <= 1.0 and 0.0 <= fast.rr <= 1.0


class TestBipartiteResultShape:
    def test_cross_keys_decode_to_cross_pairs(self, fig1, fig1_sf):
        linked = _split(fig1, seed=2, name="fig1")
        result = _blocker("lsh", "fig1").block_pair(linked)
        decoded = pairs_from_keys(result.cross_pair_keys, linked.union.record_ids)
        assert set(decoded) == set(result.cross_pairs)

    def test_multiset_counts_cross_only(self, fig1):
        linked = _split(fig1, seed=2, name="fig1")
        result = _blocker("lsh", "fig1").block_pair(linked)
        src = set(linked.source.record_ids)
        expected = sum(
            sum(1 for r in b if r in src) * sum(1 for r in b if r not in src)
            for b in result.blocks
        )
        assert result.num_cross_multiset_comparisons == expected

    def test_as_bipartite_requires_linked(self, fig1):
        result = _blocker("lsh", "fig1").block(fig1)
        with pytest.raises(DatasetError):
            _ = as_bipartite(result, None)._require_linked()

    def test_evaluate_needs_a_corpus(self, fig1):
        result = _blocker("lsh", "fig1").block(fig1)
        with pytest.raises(EvaluationError):
            evaluate_linkage(result)


@st.composite
def _linked_blocks(draw):
    """A random linked corpus (either side may be empty, entity labels
    shared within and across sides) and random blocks over its union
    (single-side blocks, ids shared across blocks and repeated inside
    one)."""
    ids = draw(
        st.lists(st.text(alphabet="abst", min_size=1, max_size=3),
                 unique=True, max_size=10)
    )
    cut = draw(st.integers(0, len(ids)))
    label = st.one_of(st.none(), st.sampled_from(["e0", "e1", "e2"]))
    records = [Record(rid, {"t": rid}, entity_id=draw(label)) for rid in ids]
    linked = LinkedCorpus(
        Dataset(records[:cut], name="src"), Dataset(records[cut:], name="tgt")
    )
    blocks = draw(
        st.lists(st.lists(st.sampled_from(ids), min_size=2, max_size=6),
                 max_size=6)
    ) if ids else []
    return linked, as_bipartite(BlockingResult("random", blocks), linked)


class TestUnionCodec:
    """Cross pairs are union-codec keys ``lo < |S| <= hi``, and every
    linkage view equals its set-based oracle."""

    @settings(max_examples=150, deadline=None)
    @given(_linked_blocks())
    def test_views_equal_the_reference_oracles(self, case):
        linked, result = case
        oracle = reference.cross_pairs(result)
        assert result.cross_pairs == oracle
        keys = result.cross_pair_keys
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, np.unique(keys))
        lo, hi = decode_pair_keys(keys)
        assert (lo < len(linked.source)).all()
        assert (hi >= len(linked.source)).all()
        assert set(pairs_from_keys(keys, linked.union.record_ids)) == oracle
        assert linked.true_matches == reference.bipartite_truth(linked)
        slow = reference.evaluate_linkage(result)
        assert result.num_cross_multiset_comparisons == slow.num_multiset_pairs
        assert evaluate_linkage(result) == slow

    @pytest.mark.parametrize(
        "engine", [evaluate_linkage, reference.evaluate_linkage],
        ids=["array", "reference"],
    )
    def test_block_outside_the_union_is_named(self, engine):
        blocks = [("s1", "t1"), ("s0", "ghost-7")]
        result = as_bipartite(BlockingResult("x", blocks), _small_linked())
        with pytest.raises(EvaluationError, match="ghost-7"):
            engine(result)


class TestLinkedCsv:
    def _linked(self):
        src = Dataset(
            [Record("a1", {"name": "ann"}, entity_id="e1")], name="acm"
        )
        tgt = Dataset(
            [Record("d1", {"name": "ann."}, entity_id="e1"),
             Record("d2", {"name": "bob"}, entity_id="e2")],
            name="dblp",
        )
        return LinkedCorpus(src, tgt)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "linked.csv"
        write_linked_csv(self._linked(), path)
        back = read_linked_csv(path)
        assert back.source.name == "acm" and back.target.name == "dblp"
        assert list(back.source.record_ids) == ["a1"]
        assert list(back.target.record_ids) == ["d1", "d2"]
        assert back.target["d2"].get("name") == "bob"
        assert back.true_matches == {("a1", "d1")}

    def test_role_pinning_overrides_order(self, tmp_path):
        path = tmp_path / "linked.csv"
        write_linked_csv(self._linked(), path)
        flipped = read_linked_csv(path, source="dblp", target="acm")
        assert flipped.source.name == "dblp"
        assert len(flipped.source) == 2

    def _write(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text(
            "record_id,dataset_id,entity_id,name\n" + "\n".join(rows) + "\n"
        )
        return path

    def test_missing_dataset_value_names_line(self, tmp_path):
        path = self._write(tmp_path, ["a1,acm,e1,ann", "d1,,e1,ann"])
        with pytest.raises(DatasetError, match="line 3"):
            read_linked_csv(path)

    def test_third_dataset_names_line(self, tmp_path):
        path = self._write(
            tmp_path, ["a1,acm,e1,ann", "d1,dblp,e1,ann", "x1,other,e2,bob"]
        )
        with pytest.raises(DatasetError, match="line 4"):
            read_linked_csv(path)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = self._write(
            tmp_path, ["a1,acm,e1,ann", "a1,dblp,e1,ann"]
        )
        with pytest.raises(DatasetError, match="line 3.*line 2"):
            read_linked_csv(path)

    def test_single_dataset_rejected(self, tmp_path):
        path = self._write(tmp_path, ["a1,acm,e1,ann", "a2,acm,e1,ann"])
        with pytest.raises(DatasetError, match="exactly two"):
            read_linked_csv(path)

    def test_unknown_pinned_name_rejected(self, tmp_path):
        path = self._write(tmp_path, ["a1,acm,e1,ann", "d1,dblp,e1,ann"])
        with pytest.raises(DatasetError, match="nope"):
            read_linked_csv(path, source="nope")


class TestLinkageResolver:
    def _voter_linked(self):
        data = NCVoterLikeGenerator(num_records=240, seed=11).generate()
        dups = [r for r in data if r.record_id.startswith("d")]
        clean = [r for r in data if r.record_id.startswith("v")]
        return LinkedCorpus(
            Dataset(dups, name="dirty"), Dataset(clean, name="clean")
        )

    def _matcher(self):
        return SimilarityMatcher(
            {"first_name": "jaro_winkler", "last_name": "jaro_winkler",
             "city": "jaro_winkler"},
            match_threshold=0.9,
            possible_threshold=0.75,
        )

    def test_index_holds_target_probes_are_source(self):
        linked = self._voter_linked()
        blocker = LSHBlocker(
            ("first_name", "last_name", "city"), q=2, k=9, l=15, seed=3
        )
        resolver = Resolver.for_linkage(
            blocker, linked, matcher=self._matcher()
        )
        assert len(resolver) == len(linked.target)
        resolved = resolver.link()
        assert len(resolved) == len(linked.source)
        # Probes are never inserted: the target corpus is unchanged.
        assert len(resolver) == len(linked.target)
        by_tier = {}
        for entity in resolved:
            by_tier.setdefault(entity.tier, []).append(entity)
        assert len(by_tier.get("match", [])) > 0
        for entity in by_tier.get("match", []):
            assert entity.best_id in linked.target
        # Matched duplicates resolve to their own clean twin.
        truth = dict(linked.true_matches)
        hits = [e for e in by_tier.get("match", []) if e.record_id in truth]
        assert hits and all(
            truth[e.record_id] == e.best_id for e in hits
        )

    def test_salsh_linkage_encoder_matches_block_pair(self, fig1, fig1_sf):
        linked = _split(fig1, seed=2, name="fig1")
        blocker = _blocker("salsh", "fig1", fig1_sf)
        resolver = Resolver.for_linkage(blocker, linked)
        # The frozen encoder spans the union, exactly like block_pair.
        paired = blocker.block_pair(linked)
        assert len(resolver.index.encoder.bits) == (
            paired.metadata["num_semantic_bits"]
        )

    def test_salsh_empty_linkage_corpus(self, fig1_sf):
        # No record on either side: nothing to freeze an encoder from,
        # so the resolver, like block_pair, holds nothing and links
        # nothing instead of raising.
        linked = LinkedCorpus(
            Dataset([], name="empty-src"), Dataset([], name="empty-tgt")
        )
        blocker = _blocker("salsh", "fig1", fig1_sf)
        resolver = Resolver.for_linkage(blocker, linked)
        assert len(resolver) == 0
        assert resolver.link() == []
        assert blocker.block_pair(linked).blocks == ()

    def test_link_without_corpus_needs_records(self, fig1):
        blocker = _blocker("lsh", "fig1")
        resolver = Resolver(blocker, fig1)
        with pytest.raises(ConfigurationError):
            resolver.link()
        assert resolver.link(list(fig1)[:2])
