"""End-to-end integration tests reproducing the paper's qualitative claims."""

import os

import pytest

from repro.baselines import StandardBlocker, SuffixArrayBlocker
from repro.core import LSHBlocker, SALSHBlocker
from repro.core.tuning import determine_kl, determine_sh
from repro.evaluation import evaluate_blocks, run_blocking
from repro.metablocking import run_metablocking
from repro.minhash import Shingler
from repro.semantic import (
    PatternSemanticFunction,
    VoterSemanticFunction,
    cora_patterns,
)
from repro.taxonomy.builders import bibliographic_tree


CORA_ATTRS = ("authors", "title")
VOTER_ATTRS = ("first_name", "last_name")


@pytest.fixture(scope="module")
def cora_sf():
    return PatternSemanticFunction(bibliographic_tree(), cora_patterns())


class TestCoraPipeline:
    def test_salsh_improves_pq_at_small_pc_cost(self, cora_small, cora_sf):
        """The paper's headline claim (§6.3.2, Fig. 9 a-b): SA-LSH
        trades a small PC decrease for a clear PQ increase."""
        lsh = run_blocking(
            LSHBlocker(CORA_ATTRS, q=3, k=3, l=19, seed=5), cora_small
        )
        salsh = run_blocking(
            SALSHBlocker(
                CORA_ATTRS, q=3, k=3, l=19, seed=5,
                semantic_function=cora_sf, w="all", mode="or",
            ),
            cora_small,
        )
        assert salsh.metrics.pq >= lsh.metrics.pq
        assert salsh.metrics.rr >= lsh.metrics.rr
        assert salsh.metrics.pc <= lsh.metrics.pc
        assert lsh.metrics.pc - salsh.metrics.pc < 0.15

    def test_salsh_beats_standard_blocking_fm(self, cora_small, cora_sf):
        """Fig. 11: (SA-)LSH has higher FM than exact-key blocking on
        the dirty bibliographic corpus."""
        tblo = run_blocking(StandardBlocker(CORA_ATTRS), cora_small)
        salsh = run_blocking(
            SALSHBlocker(
                CORA_ATTRS, q=3, k=3, l=19, seed=5,
                semantic_function=cora_sf, w="all", mode="or",
            ),
            cora_small,
        )
        assert salsh.metrics.fm > tblo.metrics.fm

    def test_parameter_tuning_on_training_sample(self, cora_small):
        """§5.3 end to end: learn sh from the true-match similarity
        distribution of a training sample and derive feasible (k, l)."""
        shingler = Shingler(CORA_ATTRS, q=3)
        train = list(cora_small.true_matches)[:200]
        sims = [
            shingler.jaccard(cora_small[a], cora_small[b]) for a, b in train
        ]
        sh = determine_sh(sims, epsilon=0.05)
        sl = max(sh / 2, 0.01)
        params = determine_kl(sh, sl, ph=0.4, pl=0.1)
        assert params.k >= 1 and params.l >= 1

    def test_and_mode_stricter_than_or(self, cora_small, cora_sf):
        """Fig. 7: AND gates remove more pairs than OR gates."""
        common = dict(q=3, k=3, l=19, seed=5, semantic_function=cora_sf)
        or_pairs = (
            SALSHBlocker(CORA_ATTRS, w=2, mode="or", **common)
            .block(cora_small)
            .distinct_pairs
        )
        and_pairs = (
            SALSHBlocker(CORA_ATTRS, w=2, mode="and", **common)
            .block(cora_small)
            .distinct_pairs
        )
        assert len(and_pairs) <= len(or_pairs)


class TestVoterPipeline:
    def test_salsh_improves_pq_on_clean_data(self, voter_small):
        """Fig. 9 (d)-(f): on NC Voter the PC values coincide while
        PQ improves (semantic features are uncertain but not noisy)."""
        sf = VoterSemanticFunction()
        lsh = run_blocking(
            LSHBlocker(VOTER_ATTRS, q=2, k=9, l=15, seed=2), voter_small
        )
        salsh = run_blocking(
            SALSHBlocker(
                VOTER_ATTRS, q=2, k=9, l=15, seed=2,
                semantic_function=sf, w="all", mode="or",
            ),
            voter_small,
        )
        assert salsh.metrics.pq >= lsh.metrics.pq
        assert lsh.metrics.pc - salsh.metrics.pc <= 0.05

    def test_semantic_bits_are_12(self, voter_small):
        """§6.2: 'a 12 bit semantic signature for each record'."""
        from repro.semantic import SemhashEncoder

        encoder = SemhashEncoder(VoterSemanticFunction(), voter_small)
        assert encoder.num_bits == 12


class TestMetaBlockingPipeline:
    def test_metablocking_on_suffix_blocks(self, voter_small):
        """Fig. 12 setting: prune a redundant block collection and gain
        PQ* without losing all recall."""
        source = SuffixArrayBlocker(
            VOTER_ATTRS, min_length=3, max_block_size=20
        ).block(voter_small)
        before = evaluate_blocks(source, voter_small)
        pruned = run_metablocking(source, "ARCS", "WEP")
        after = evaluate_blocks(pruned, voter_small)
        assert after.pq_star >= before.pq_star
        assert after.pc > 0.0


class TestScalabilityShape:
    def test_blocking_time_grows_subquadratically(self):
        """Fig. 13 (d): doubling records must not quadruple LSH time."""
        import gc
        import time

        from repro.datasets import NCVoterLikeGenerator

        if os.environ.get("REPRO_SKIP_SLOW"):
            pytest.skip("slow test skipped by REPRO_SKIP_SLOW")

        times = []
        for n in (1000, 2000):
            ds = NCVoterLikeGenerator(num_records=n, seed=3).generate()
            blocker = LSHBlocker(VOTER_ATTRS, q=2, k=9, l=15, seed=1)
            blocker.block(ds)  # untimed warm-up
            gc.collect()
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                blocker.block(ds)
                best = min(best, time.perf_counter() - start)
            times.append(best)
        # Allow generous noise: 2x data must stay under 3.5x time.
        assert times[1] < times[0] * 3.5
