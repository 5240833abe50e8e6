"""Scenario matrix — dedup vs linkage × clean vs corrupted × key schema.

The blocking survey treats dirty-ER (single-corpus deduplication) and
clean-clean-ER (cross-dataset record linkage) as distinct workloads
with different pair spaces, and method rankings are known to shift
between them. This rung runs both tasks through the *same* engines on
the same NC-Voter-like corpora and reports the full matrix:

* **task** — ``dedup`` blocks the whole corpus and is scored against
  all labelled pairs (|Ω| = n·(n−1)/2); ``linkage`` splits the corpus
  into its duplicate rows (source) and clean rows (target), blocks the
  source against the target via ``block_pair`` and is scored against
  the bipartite ground truth (|Ω| = |S|×|T|).
* **corpus** — ``clean`` duplicates are verbatim re-registrations
  (``exact_duplicate_fraction=1``); ``corrupted`` duplicates always
  carry a name typo (``exact_duplicate_fraction=0``).
* **keys** — ``aligned`` blocks on the schema-aligned name attributes
  the paper tunes for (§6.1); ``fallback`` blocks on the coarse
  ``city``/``zip`` columns, the degraded-schema regime a production
  linker falls back to when the name schema is unavailable.

Every linkage cell doubles as an equivalence check: the array
evaluation engine must agree with the per-block reference
(``repro.reference.evaluate_linkage``).

``check_linkage`` gates the matrix (``main`` and the pytest wrapper
both fail if it does not hold):

* on the corrupted corpus with aligned keys, linkage pair completeness
  is within ``PC_GAP_BUDGET`` (2 points) of the dedup run scored on
  the same bipartite split (the dedup blocker's recall of cross-side
  true matches), and never more than 2 points *below* the dedup
  workload's own PC — linkage must not cost recall. Linkage PC
  may legitimately exceed the dedup workload PC: the bipartite truth
  excludes duplicate-duplicate pairs, which on a corrupted corpus are
  the hardest to block (both members carry typos);
* linkage blocking throughput never drops below the per-record
  engine's floor on the same union corpus — the streamed
  ``block_pair`` path has no excuse to be slower than blocking one
  record at a time.

Results land in ``BENCH_linkage_matrix.json`` at the repo root.

Environment knobs:

* ``REPRO_BENCH_LINKAGE_SIZE=1000`` — corpus size per cell (default
  4,000 at small scale, 30,000 at ``REPRO_BENCH_SCALE=paper``).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro import reference
from repro.core import LSHBlocker, as_bipartite
from repro.datasets import NCVoterLikeGenerator
from repro.evaluation import evaluate_blocks, evaluate_linkage, format_table
from repro.records import Dataset, LinkedCorpus

from _shared import SEED, VOTER_K, VOTER_L, VOTER_Q, scale, write_result

RESULT_JSON = (
    Path(__file__).resolve().parent.parent / "BENCH_linkage_matrix.json"
)

#: |PC(linkage) − PC(dedup)| budget on the corrupted/aligned cell.
PC_GAP_BUDGET = 0.02
#: The linkage path must reach at least this fraction of the
#: per-record engine's records/sec on the same union corpus (1.0 =
#: "never below the per-record floor").
LINKAGE_FLOOR_FACTOR = 1.0

#: The two key schemas of the matrix.
KEY_SCHEMAS = {
    "aligned": ("first_name", "last_name"),
    "fallback": ("city", "zip"),
}

#: The two corpus variants: verbatim duplicates vs always-typo'd ones.
CORPUS_VARIANTS = {
    "clean": dict(exact_duplicate_fraction=1.0, typo_errors=0),
    "corrupted": dict(exact_duplicate_fraction=0.0, typo_errors=1),
}


def matrix_size() -> int:
    default = 30_000 if scale() == "paper" else 4_000
    return int(os.environ.get("REPRO_BENCH_LINKAGE_SIZE", default))


def _corpus(variant: str, size: int) -> Dataset:
    return NCVoterLikeGenerator(
        num_records=size, seed=SEED, **CORPUS_VARIANTS[variant]
    ).generate()


def _split(dataset: Dataset) -> LinkedCorpus:
    """Duplicate rows (d…) as the source, clean rows (v…) as the target."""
    dups = [r for r in dataset if r.record_id.startswith("d")]
    clean = [r for r in dataset if r.record_id.startswith("v")]
    return LinkedCorpus(
        Dataset(dups, name=f"{dataset.name}-dups"),
        Dataset(clean, name=f"{dataset.name}-clean"),
    )


def _blocker(attributes) -> LSHBlocker:
    return LSHBlocker(attributes, q=VOTER_Q, k=VOTER_K, l=VOTER_L, seed=SEED)


def _run_cell(variant: str, key_name: str, size: int) -> dict:
    attributes = KEY_SCHEMAS[key_name]
    dataset = _corpus(variant, size)
    linked = _split(dataset)

    start = time.perf_counter()
    dedup_result = _blocker(attributes).block(dataset)
    dedup_seconds = time.perf_counter() - start
    dedup_metrics = evaluate_blocks(dedup_result, dataset)

    # The dedup run scored on the same bipartite split: its recall of
    # cross-side true matches is the apples-to-apples "same split"
    # comparison for linkage PC.
    dedup_cross = evaluate_linkage(as_bipartite(dedup_result, linked))

    start = time.perf_counter()
    linkage_result = _blocker(attributes).block_pair(linked)
    linkage_seconds = time.perf_counter() - start
    linkage_metrics = evaluate_linkage(linkage_result)

    legacy_metrics = reference.evaluate_linkage(linkage_result)
    assert linkage_metrics == legacy_metrics, (
        f"{variant}/{key_name}: array and legacy linkage evaluation "
        "disagree — equivalence broken"
    )

    # The per-record floor: the slowest honest engine on the same
    # union corpus. block_pair streams records through the online
    # index, so it must never lose to blocking one record at a time.
    start = time.perf_counter()
    reference.lsh_blocks(
        LSHBlocker(attributes, q=VOTER_Q, k=VOTER_K, l=VOTER_L, seed=SEED),
        linked.union,
    )
    per_record_seconds = time.perf_counter() - start

    n = len(dataset)
    return {
        "records": n,
        "num_source": len(linked.source),
        "num_target": len(linked.target),
        "dedup_pc": round(dedup_metrics.pc, 4),
        "dedup_pq": round(dedup_metrics.pq, 4),
        "dedup_rr": round(dedup_metrics.rr, 4),
        "dedup_pairs": dedup_metrics.num_distinct_pairs,
        "dedup_seconds": round(dedup_seconds, 4),
        "dedup_cross_pc": round(dedup_cross.pc, 4),
        "linkage_pc": round(linkage_metrics.pc, 4),
        "linkage_pq": round(linkage_metrics.pq, 4),
        "linkage_rr": round(linkage_metrics.rr, 4),
        "linkage_pairs": linkage_metrics.num_distinct_pairs,
        "linkage_seconds": round(linkage_seconds, 4),
        "linkage_records_per_sec": round(n / linkage_seconds, 1),
        "per_record_seconds": round(per_record_seconds, 4),
        "per_record_records_per_sec": round(n / per_record_seconds, 1),
        "linkage_vs_per_record": round(
            per_record_seconds / linkage_seconds, 2
        ),
        # Same-split gap: linkage PC vs the dedup blocker's cross-pair
        # PC on the identical bipartite truth.
        "pc_gap": round(abs(linkage_metrics.pc - dedup_cross.pc), 4),
        # Workload delta: linkage PC minus the classic dedup PC
        # (positive = linkage recalls more; only a deficit regresses).
        "pc_delta_vs_dedup": round(linkage_metrics.pc - dedup_metrics.pc, 4),
    }


def run_matrix() -> dict:
    size = matrix_size()
    cells: dict[str, dict] = {}
    for variant in CORPUS_VARIANTS:
        for key_name in KEY_SCHEMAS:
            cells[f"{variant}/{key_name}"] = _run_cell(
                variant, key_name, size
            )
    return {
        "benchmark": "linkage_matrix",
        "scale": scale(),
        "size": size,
        "blocker": {"q": VOTER_Q, "k": VOTER_K, "l": VOTER_L, "seed": SEED},
        "cells": cells,
    }


def check_linkage(report: dict) -> None:
    """The scenario-matrix gate (see module docstring)."""
    cells = report["cells"]
    required = (
        "dedup_pc", "dedup_cross_pc", "linkage_pc", "pc_gap",
        "pc_delta_vs_dedup", "linkage_records_per_sec",
        "per_record_records_per_sec", "linkage_vs_per_record",
    )
    for name, stats in cells.items():
        for column in required:
            assert column in stats, f"cell {name}: column {column!r} missing"
        floor = LINKAGE_FLOOR_FACTOR * stats["per_record_records_per_sec"]
        assert stats["linkage_records_per_sec"] >= floor, (
            f"cell {name}: linkage blocking at "
            f"{stats['linkage_records_per_sec']} rec/s fell below the "
            f"per-record floor {floor} — the streamed block_pair path "
            "regressed"
        )
    headline = cells["corrupted/aligned"]
    assert headline["pc_gap"] <= PC_GAP_BUDGET, (
        f"corrupted/aligned: linkage PC {headline['linkage_pc']} vs the "
        f"dedup run's same-split PC {headline['dedup_cross_pc']} — gap "
        f"{headline['pc_gap']} exceeds {PC_GAP_BUDGET}; linkage is "
        "costing recall"
    )
    assert headline["pc_delta_vs_dedup"] >= -PC_GAP_BUDGET, (
        f"corrupted/aligned: linkage PC {headline['linkage_pc']} fell "
        f"more than {PC_GAP_BUDGET} below the dedup workload PC "
        f"{headline['dedup_pc']} — linkage is costing recall"
    )


def _persist(report: dict) -> None:
    RESULT_JSON.write_text(json.dumps(report, indent=2) + "\n")
    rows = [
        [
            name,
            stats["records"],
            stats["dedup_pc"],
            stats["dedup_cross_pc"],
            stats["linkage_pc"],
            stats["pc_gap"],
            stats["dedup_rr"],
            stats["linkage_rr"],
            stats["linkage_pairs"],
            stats["linkage_records_per_sec"],
            stats["per_record_records_per_sec"],
        ]
        for name, stats in report["cells"].items()
    ]
    write_result(
        "linkage_matrix",
        format_table(
            ["scenario", "records", "pc(dedup)", "pc(cross)", "pc(link)",
             "pc.gap",
             "rr(dedup)", "rr(link)", "pairs(link)", "rec/s(link)",
             "rec/s(loop)"],
            rows,
            title="Scenario matrix — dedup vs linkage × clean vs "
                  f"corrupted × key schema (q={VOTER_Q}, k={VOTER_K}, "
                  f"l={VOTER_L})",
        ),
    )
    print(f"[written to {RESULT_JSON.name}]")


def test_linkage_matrix(benchmark):
    report = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    _persist(report)
    check_linkage(report)


def main() -> int:
    report = run_matrix()
    _persist(report)
    check_linkage(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
