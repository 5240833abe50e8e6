"""Experiment runner: time a blocker, evaluate its blocks."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.base import Blocker, BlockingResult
from repro.errors import EvaluationError
from repro.evaluation.metrics import BlockingMetrics, evaluate_blocks
from repro.records.dataset import Dataset


@dataclass(frozen=True)
class ExperimentResult:
    """A timed, evaluated blocking run."""

    blocker_name: str
    description: str
    metrics: BlockingMetrics
    seconds: float
    result: BlockingResult

    @property
    def sf_seconds(self) -> float:
        """Semantic-function build time (0 for non-semantic blockers)."""
        return float(self.result.metadata.get("sf_seconds", 0.0))


def run_blocking(blocker: Blocker, dataset: Dataset) -> ExperimentResult:
    """Run one blocker over one dataset, timing the block() call."""
    start = time.perf_counter()
    result = blocker.block(dataset)
    elapsed = time.perf_counter() - start
    # Evaluate the copy that is returned, so its cached blocking graph
    # serves later readers (the CLI's pairs file) too.
    result = result.with_timing(elapsed)
    return ExperimentResult(
        blocker_name=blocker.name,
        description=blocker.describe(),
        metrics=evaluate_blocks(result, dataset),
        seconds=elapsed,
        result=result,
    )


def run_all(blockers: Iterable[Blocker], dataset: Dataset) -> list[ExperimentResult]:
    """Run several blockers over the same dataset."""
    return [run_blocking(b, dataset) for b in blockers]


def best_by(
    results: Sequence[ExperimentResult], measure: str = "fm"
) -> ExperimentResult:
    """The run maximising one metric attribute (the survey's protocol:
    report each technique at its best-performing parameter setting)."""
    if not results:
        raise EvaluationError("best_by needs at least one result")
    if not hasattr(results[0].metrics, measure):
        raise EvaluationError(f"unknown measure {measure!r}")
    return max(results, key=lambda r: getattr(r.metrics, measure))
