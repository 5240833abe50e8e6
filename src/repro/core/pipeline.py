"""End-to-end SA-LSH pipeline: tune, block, evaluate, resolve.

Glues the §5.3 parameter-tuning chain to the blocker and (optionally)
the downstream ER stage so that one call covers the whole methodology:

1. learn sh from the true-match similarity distribution of a training
   sample and derive (k, l);
2. analyse semantic-feature quality and choose (µ, w) (§5.3 step iii);
3. block with SA-LSH (or LSH when no semantic function is given);
4. evaluate against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.lsh_blocker import LSHBlocker
from repro.core.salsh_blocker import SALSHBlocker
from repro.core.tuning import TunedParameters, determine_kl, determine_sh
from repro.errors import ConfigurationError
from repro.evaluation.metrics import BlockingMetrics, evaluate_blocks
from repro.evaluation.runner import ExperimentResult, run_blocking
from repro.minhash.shingling import Shingler
from repro.records.dataset import Dataset
from repro.semantic.analysis import (
    SemanticFeatureQuality,
    analyse_semantic_features,
    recommend_gate,
)
from repro.semantic.interpretation import SemanticFunction
from repro.semantic.semhash import SemhashEncoder


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of :func:`run_pipeline`.

    ``epsilon``, ``ph``, ``pl`` and ``sl_gap`` drive §5.3 tuning; gate
    selection is automatic unless ``w``/``mode`` are pinned.
    """

    attributes: tuple[str, ...]
    q: int | None = 3
    epsilon: float = 0.05
    ph: float = 0.4
    pl: float = 0.1
    sl_gap: float = 0.1
    training_pairs: int = 500
    seed: int = 0
    w: int | str | None = None
    mode: str | None = None


@dataclass(frozen=True)
class PipelineReport:
    """Everything the pipeline decided and measured."""

    parameters: TunedParameters
    gate: tuple[str, int | str] | None
    feature_quality: SemanticFeatureQuality | None
    outcome: ExperimentResult

    @property
    def metrics(self) -> BlockingMetrics:
        return self.outcome.metrics


def tune_from_dataset(dataset: Dataset, config: PipelineConfig) -> TunedParameters:
    """§5.3 steps (i)-(ii) on a training sample of true matches."""
    if not dataset.num_true_matches:
        raise ConfigurationError(
            "parameter tuning needs ground-truth matches in the training data"
        )
    shingler = Shingler(config.attributes, q=config.q)
    pairs = sorted(dataset.true_matches)[: config.training_pairs]
    # Shingle each distinct training record once (interned corpus pass)
    # instead of re-shingling per pair; corpus-level Jaccard over the
    # interned vocabulary ids is exact, like the textual Jaccard.
    training_ids = sorted({record_id for pair in pairs for record_id in pair})
    corpus = shingler.shingle_corpus(dataset[rid] for rid in training_ids)
    rows = corpus.row_index
    similarities = [
        corpus.jaccard(rows[id1], rows[id2]) for id1, id2 in pairs
    ]
    sh = determine_sh(similarities, config.epsilon)
    sh = min(max(sh, 0.05), 0.99)
    sl = max(sh - config.sl_gap, sh / 2, 0.01)
    return determine_kl(sh, sl, config.ph, config.pl)


def build_blocker(
    training: Dataset,
    config: PipelineConfig,
    parameters: TunedParameters,
    semantic_function: SemanticFunction | None = None,
) -> tuple[
    "LSHBlocker | SALSHBlocker",
    tuple[str, int | str] | None,
    SemanticFeatureQuality | None,
]:
    """§5.3 step (iii): the tuned blocker plus its gate decision.

    Returns ``(blocker, gate, feature_quality)``; the latter two are
    ``None`` for plain LSH (no semantic function). Shared by
    :func:`run_pipeline` and :func:`build_resolver` so the batch and
    online surfaces make identical parameter choices.
    """
    if semantic_function is None:
        blocker = LSHBlocker(
            config.attributes, q=config.q,
            k=parameters.k, l=parameters.l, seed=config.seed,
        )
        return blocker, None, None
    quality = analyse_semantic_features(training, semantic_function)
    num_bits = SemhashEncoder(semantic_function, training).num_bits
    mode, w = recommend_gate(quality, num_bits)
    if config.mode is not None:
        mode = config.mode
    if config.w is not None:
        w = config.w
    blocker = SALSHBlocker(
        config.attributes, q=config.q,
        k=parameters.k, l=parameters.l, seed=config.seed,
        semantic_function=semantic_function, w=w, mode=mode,
    )
    return blocker, (mode, w), quality


def run_pipeline(
    dataset: Dataset,
    config: PipelineConfig,
    semantic_function: SemanticFunction | None = None,
    *,
    training_dataset: Dataset | None = None,
) -> PipelineReport:
    """Tune on ``training_dataset`` (default: the dataset itself), then
    block and evaluate ``dataset``."""
    training = training_dataset or dataset
    parameters = tune_from_dataset(training, config)
    blocker, gate, quality = build_blocker(
        training, config, parameters, semantic_function
    )
    outcome = run_blocking(blocker, dataset)
    return PipelineReport(
        parameters=parameters,
        gate=gate,
        feature_quality=quality,
        outcome=outcome,
    )


def build_resolver(
    corpus: Dataset,
    config: PipelineConfig,
    semantic_function: SemanticFunction | None = None,
    *,
    training_dataset: Dataset | None = None,
    matcher: "SimilarityMatcher | None" = None,
):
    """The online counterpart of :func:`run_pipeline`: a tuned, warm
    :class:`~repro.er.resolver.Resolver` over ``corpus``.

    Runs the same §5.3 tuning chain (sh → (k, l) → gate selection) on
    ``training_dataset`` (default: the corpus), builds the blocker, and
    seeds the resolver's incremental index with the corpus in one slab.
    Mutations and single-record queries then go through
    :class:`~repro.er.resolver.Resolver`.
    """
    from repro.er.resolver import Resolver

    training = training_dataset or corpus
    parameters = tune_from_dataset(training, config)
    blocker, _, _ = build_blocker(
        training, config, parameters, semantic_function
    )
    return Resolver(blocker, corpus, matcher=matcher)
