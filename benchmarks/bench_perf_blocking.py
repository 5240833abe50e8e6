"""Perf benchmark — per-record vs batch vs streamed vs sharded vs
pooled engines.

Times LSH and SA-LSH blocking on synthetic NC-Voter at 10k/50k records
(the paper's §6.1 voter parameters q=2, k=9, l=15) under the per-record
reference loop (``repro.reference``) and the batch engine, the
process-sharded runtime (``processes`` worker processes: record-slab
signatures + band-sharded grouping) both on an
ephemeral pool per call and on a warm persistent
:class:`~repro.utils.parallel.ShardPool` (shared-memory
slab transport, record slabs interned across calls), the slab-streamed
LSH path with a memory-mapped signature spill, and the streamed SA-LSH
path (encoder frozen from the full corpus, growable spill). A further section times
the survey baselines that run on the batch key-extraction path (TBlo,
SorA, SorII, SuA) at the same sizes, so the techniques the survey calls
"blocking one record at a time" finally appear on the same 50k+ axis.
Each technique's batch result is also scored (PC and PQ next to
``num_blocks``), and ``check_quality`` holds Fig. 9's claim at every
ladder size: SA-LSH's PQ above LSH's at a PC no more than 2 points
lower — so a change that is faster but blocks worse fails a gate.
Results land in ``BENCH_perf_blocking.json`` at the repo root so future
PRs have a perf trajectory to compare against.

A fifth section times the downstream *pair pipeline* over the LSH
blocks — candidate-pair enumeration, PC/PQ/RR/FM evaluation,
meta-blocking (ECBS + WNP) and similarity matching — under the
per-pair Python reference path and the array-backed candidate-pair
engine (DESIGN.md, "Candidate-pair engine"), reporting pairs/sec and the
end-to-end ``pipeline_speedup`` headline.

A sixth section times the *online query path* (DESIGN.md, "Resolver
service"): single-record ``query()`` latency against a warm incremental
index, for LSH and SA-LSH, both over a static corpus and with
adds/removes interleaved between queries — the serving regime the
resolver exists for. ``check_query_path`` enforces p50 < 10 ms at the
50k ladder size (the per-query cost must stay independent of corpus
size once the lazy query maps are built).

A seventh section times the *durability layer* (DESIGN.md, "Durability
& crash recovery"): checkpoint/recover wall time for a durable
resolver, WAL frame-decode throughput, and the journal's overhead on
``resolve_many``. ``check_durability`` holds WAL replay to ≥ 10k
ops/s and the happy-path journal tax to < 5%.

Every run doubles as a large-scale equivalence check: blocks are
asserted identical across per-record/batch/sharded/pooled/streamed
engines,
and the pair pipeline asserts identical pair sets, metrics,
retained-edge sets and match decisions between the reference and array
engines (``main`` and the pytest wrapper both fail if the speedup
column is missing or < 1 — a silent fallback to reference-path
performance).

Environment knobs (see benchmarks/README.md):

* ``REPRO_BENCH_PERF_SIZES=2000,5000`` — override the 10k/50k ladder
  (CI smoke uses one small size);
* ``REPRO_BENCH_PROCESSES=4`` — process count of the sharded run
  (default 4; the recorded ``cpu_count`` tells you whether the host
  could actually exploit it — the ≥2× multicore headline only holds on
  ≥4-core hosts, single-core hosts pay pool overhead and record it);
* ``REPRO_BENCH_SCALE=paper`` keeps the default ladder.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro import reference
from repro.baselines import (
    ArraySortedNeighbourhood,
    InvertedIndexSortedNeighbourhood,
    StandardBlocker,
    SuffixArrayBlocker,
)
from repro.core.base import BlockingResult
from repro.datasets import NCVoterLikeGenerator
from repro.er import Resolver, SimilarityMatcher
from repro.evaluation import evaluate_blocks, format_table
from repro.metablocking import run_metablocking
from repro.minhash import GrowableSignatureSpill, open_signature_memmap
from repro.records import Record
from repro.semantic import SemhashEncoder
from repro.store import Journal, read_journal
from repro.utils.parallel import ShardPool, set_slab_integrity
from repro.utils.rand import rng_from_seed

from _shared import (
    SEED,
    VOTER_ATTRS,
    voter_lsh,
    voter_salsh,
    write_result,
)

DEFAULT_SIZES = (10_000, 50_000)
DEFAULT_PROCESSES = 4
#: The multicore sharded-speedup headline (vs the serial batch engine)
#: is only asserted at this ladder size and on hosts with this many
#: cores; below either threshold the column is recorded, not asserted.
SHARDED_HEADLINE_SIZE = 50_000
SHARDED_HEADLINE_CORES = 4
SHARDED_HEADLINE_SPEEDUP = 2.0
#: Warm-pool repeated blocking must beat the per-call ephemeral-pool
#: path by this factor at the headline size (the amortisation the
#: persistent shard pool exists for); below the size the column is
#: recorded, not asserted.
POOLED_HEADLINE_SIZE = 10_000
POOLED_HEADLINE_SPEEDUP = 1.5
#: Happy-path cost of the fault-tolerance layer (integrity footers +
#: disarmed injection hooks) on the pooled rung: asserted < 5% at the
#: 10k+ headline sizes, recorded below them (best-of runs this close
#: together are not timing-robust on loaded smoke hosts).
RESILIENCE_OVERHEAD_BUDGET = 0.05
#: Streamed runs cut the corpus into this many record slabs.
STREAM_SLABS = 8
#: Pair-pipeline meta-blocking configuration (per-node pruning is the
#: heaviest legacy loop, ECBS exercises the log-factor weights).
PIPELINE_SCHEME, PIPELINE_ALGORITHM = "ECBS", "WNP"
#: Band width of the pair-ladder blocker. The §6.1-tuned k=9 keeps the
#: candidate set too sparse to stress the pair stages; k=4 yields the
#: redundancy-positive, overlapping collection meta-blocking targets
#: (~400k distinct / ~540k multiset pairs at 10k records).
PIPELINE_K = 4
#: Candidate-pair cap for the matcher stage (the legacy per-pair
#: comparator dominates wall time far below the 50k ladder's edge count).
MATCH_PAIR_CAP = 100_000
#: Single-record queries timed per technique in the query-path rung.
QUERY_SAMPLES = 200
#: One add (and, two batches later, one remove) is interleaved every
#: this many queries in the updates-interleaved scenario.
QUERY_UPDATE_EVERY = 10
#: p50 single-record query latency budget, asserted at 50k+ records.
QUERY_P50_BUDGET_MS = 10.0
QUERY_BUDGET_SIZE = 50_000
#: Frames decoded in the WAL-replay rung. The cost is per-frame, not
#: per-corpus, so the op count is fixed across ladder sizes and the
#: decode rate is asserted everywhere.
WAL_REPLAY_OPS = 20_000
WAL_REPLAY_MIN_OPS_PER_SEC = 10_000
#: Happy-path cost of the durability machinery on the read path:
#: ``resolve_many`` on a journal-backed resolver vs the same corpus in
#: a plain one. Asserted only at the 10k headline rung (same timing
#: rationale as ``check_resilience``), recorded elsewhere.
JOURNAL_OVERHEAD_BUDGET = 0.05
DURABILITY_HEADLINE_SIZE = 10_000
#: How far SA-LSH's PC may sit below LSH's while its PQ must be higher
#: (Fig. 9: better quality at matched completeness) — the same 2 points
#: ``check_linkage`` allows between linkage and dedup PC.
QUALITY_PC_TOLERANCE = 0.02
RESULT_JSON = Path(__file__).resolve().parent.parent / "BENCH_perf_blocking.json"


def sizes() -> tuple[int, ...]:
    override = os.environ.get("REPRO_BENCH_PERF_SIZES")
    if override:
        return tuple(int(part) for part in override.split(",") if part.strip())
    return DEFAULT_SIZES


def bench_processes() -> int:
    return int(os.environ.get("REPRO_BENCH_PROCESSES", str(DEFAULT_PROCESSES)))


def _timed(run, *, repeats: int):
    """Best-of-``repeats`` wall time (standard throughput practice)."""
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _run_engine_pair(
    make_blocker, dataset, warmup_dataset, *, stream: str | None
) -> dict:
    # One small warmup per engine: fills the process-wide SHA-1 memo
    # and numpy's lazily-initialised kernels so both engines are timed
    # at steady-state throughput.
    reference.per_record_blocks(make_blocker(), warmup_dataset)
    make_blocker().block(warmup_dataset)
    legacy_blocks, legacy_seconds = _timed(
        lambda: reference.per_record_blocks(make_blocker(), dataset), repeats=2
    )
    batch_result, batch_seconds = _timed(
        lambda: make_blocker().block(dataset), repeats=3
    )
    assert batch_result.blocks == legacy_blocks, (
        "batch and per-record engines disagree — equivalence broken"
    )
    metrics = evaluate_blocks(batch_result, dataset)

    # Ephemeral pool per call, timed before any persistent pool exists:
    # a fresh executor fork pays for the parent's whole address space,
    # so sharing a window with live pools (and their retained intern
    # payloads) would bill pool memory to the per-call path.
    processes = bench_processes()
    sharded_result, sharded_seconds = _timed(
        lambda: make_blocker(processes=processes).block(dataset),
        repeats=3,
    )
    assert sharded_result.blocks == batch_result.blocks, (
        "sharded and serial batch engines disagree — equivalence broken"
    )

    # Pooled: the same sharded runtime on one warm persistent pool —
    # the executor forks once, record slabs are interned in shared
    # memory on the untimed warm calls, and the timed rounds measure
    # the amortised steady state repeated blocking calls actually see.
    # The integrity-off twin ("bare", snapshotting the toggle at
    # construction) isolates what the fault-tolerance happy path
    # (slab footers + disarmed injection hooks) costs when nothing
    # fails. The two are timed in one shared window of paired rounds
    # with strictly balanced ordering (the second call of a round pays
    # the first call's tmpfs page reclaim, so each pool leads half the
    # rounds), and the overhead column compares the *median* of each
    # pool's lead-position times — lead rounds are the clean samples,
    # and the median rides out the multi-second load spikes a shared
    # single-core host throws at any individual round, which two
    # separately-timed windows (or a min over a handful of rounds)
    # cannot.
    pooled_times: list[float] = []
    bare_times: list[float] = []
    pooled_leads: list[float] = []
    bare_leads: list[float] = []
    previous_integrity = set_slab_integrity(False)
    try:
        bare_pool = ShardPool(processes)
    finally:
        set_slab_integrity(previous_integrity)
    with ShardPool(processes) as pool, bare_pool:
        make_blocker(pool=pool).block(warmup_dataset)
        make_blocker(pool=pool).block(dataset)
        make_blocker(pool=bare_pool).block(warmup_dataset)
        make_blocker(pool=bare_pool).block(dataset)
        for round_index in range(12):
            ordered = (pool, bare_pool) if round_index % 2 else (bare_pool, pool)
            for position, timed_pool in enumerate(ordered):
                start = time.perf_counter()
                timed_result = make_blocker(pool=timed_pool).block(dataset)
                elapsed = time.perf_counter() - start
                if timed_pool is pool:
                    pooled_result = timed_result
                    pooled_times.append(elapsed)
                    if position == 0:
                        pooled_leads.append(elapsed)
                else:
                    bare_result = timed_result
                    bare_times.append(elapsed)
                    if position == 0:
                        bare_leads.append(elapsed)
    pooled_seconds = min(pooled_times)
    bare_seconds = min(bare_times)
    resilience_overhead = (
        statistics.median(pooled_leads) / statistics.median(bare_leads) - 1.0
    )
    assert pooled_result.blocks == batch_result.blocks, (
        "pooled and serial batch engines disagree — equivalence broken"
    )
    assert bare_result.blocks == batch_result.blocks, (
        "integrity-off pooled engine disagrees — equivalence broken"
    )

    n = len(dataset)
    stats = {
        "num_blocks": batch_result.num_blocks,
        "pc": round(metrics.pc, 4),
        "pq": round(metrics.pq, 4),
        "per_record_seconds": round(legacy_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "per_record_records_per_sec": round(n / legacy_seconds, 1),
        "batch_records_per_sec": round(n / batch_seconds, 1),
        "speedup": round(legacy_seconds / batch_seconds, 2),
        "processes": processes,
        "sharded_seconds": round(sharded_seconds, 4),
        "sharded_records_per_sec": round(n / sharded_seconds, 1),
        # Guard column: the sharded runtime must stay ahead of the
        # per-record legacy floor on any host.
        "sharded_speedup": round(legacy_seconds / sharded_seconds, 2),
        # Headline column: multicore scaling vs the serial batch
        # engine; ≥2× expected at 50k on ≥4-core hosts, recorded (with
        # cpu_count) on smaller hosts.
        "sharded_parallel_speedup": round(batch_seconds / sharded_seconds, 2),
        "pooled_seconds": round(pooled_seconds, 4),
        "pooled_records_per_sec": round(n / pooled_seconds, 1),
        # Guard column: the warm pool must stay ahead of the
        # per-record legacy floor on any host.
        "pooled_speedup": round(legacy_seconds / pooled_seconds, 2),
        # Headline column: warm-pool amortisation vs the per-call
        # ephemeral-pool sharded path; ≥1.5× asserted at 10k+.
        "pooled_vs_fresh_speedup": round(sharded_seconds / pooled_seconds, 2),
        "pooled_bare_seconds": round(bare_seconds, 4),
        # Resilience column: fractional happy-path cost of integrity
        # footers + disarmed fault hooks on the warm pooled rung
        # (ratio of lead-round medians over the shared balanced window
        # above); < 5% asserted at 10k+ (check_resilience).
        "resilience_overhead": round(resilience_overhead, 4),
    }

    records = list(dataset)
    slab = max(1, len(records) // STREAM_SLABS)
    slabs = [records[i : i + slab] for i in range(0, len(records), slab)]
    if stream == "lsh":
        blocker = make_blocker()
        with tempfile.TemporaryDirectory() as spill_dir:
            spill = Path(spill_dir) / "signatures.npy"

            def run_streamed():
                signatures = open_signature_memmap(
                    spill, len(records), blocker.hasher.num_hashes
                )
                return blocker.block_stream(slabs, signatures_out=signatures)

            streamed_result, streamed_seconds = _timed(run_streamed, repeats=2)
        assert streamed_result.blocks == batch_result.blocks, (
            "streamed and in-memory blocking disagree — equivalence broken"
        )
        stats.update(
            {
                "streamed_seconds": round(streamed_seconds, 4),
                "streamed_records_per_sec": round(n / streamed_seconds, 1),
                "stream_slabs": len(slabs),
            }
        )
    elif stream == "salsh":
        # Streamed SA-LSH: encoder frozen from the full corpus (the
        # equivalence configuration) + growable spill — the unknown-
        # length streaming path of DESIGN.md, "Process-sharded
        # streaming runtime".
        blocker = make_blocker()
        with tempfile.TemporaryDirectory() as spill_dir:
            spill_path = Path(spill_dir) / "salsh-signatures.npy"

            def run_streamed_salsh():
                # The encoder freeze (one interpretation pass over the
                # corpus) is timed: the per-record floor this column is
                # guarded against pays the same interpretation work
                # inside block(), so excluding it here would let a
                # regressed streamed engine hide behind a warm cache.
                encoder = SemhashEncoder(blocker.semantic_function, dataset)
                spill = GrowableSignatureSpill(
                    spill_path, blocker.hasher.num_hashes
                )
                result = blocker.block_stream(
                    iter(slabs), encoder=encoder, signatures_out=spill
                )
                spill.finalize()
                return result

            streamed_result, streamed_seconds = _timed(
                run_streamed_salsh, repeats=2
            )
        assert streamed_result.blocks == batch_result.blocks, (
            "streamed SA-LSH and in-memory blocking disagree — "
            "equivalence broken"
        )
        stats.update(
            {
                "streamed_salsh_seconds": round(streamed_seconds, 4),
                "streamed_salsh_records_per_sec": round(
                    n / streamed_seconds, 1
                ),
                # Guard column: streamed SA-LSH must beat the
                # per-record legacy floor (no silent fallback).
                "streamed_salsh_speedup": round(
                    legacy_seconds / streamed_seconds, 2
                ),
                "stream_slabs": len(slabs),
            }
        )
    return stats


def _latency_columns(samples: list[float], prefix: str = "") -> dict:
    """p50/p99 columns (ms) from per-query wall times (seconds)."""
    ms = sorted(s * 1000.0 for s in samples)

    def percentile(p: float) -> float:
        return ms[min(len(ms) - 1, round(p * (len(ms) - 1)))]

    return {
        f"{prefix}p50_ms": round(percentile(0.50), 3),
        f"{prefix}p99_ms": round(percentile(0.99), 3),
    }


def _run_query_path(dataset) -> dict:
    """Time single-record ``query()`` latency on the online indexes.

    Two scenarios per technique: a static corpus (index built once, one
    untimed warm query triggers the lazy query-map fold, then
    QUERY_SAMPLES timed queries), and updates-interleaved (an add every
    QUERY_UPDATE_EVERY queries, the add of two batches earlier removed
    — so queries keep paying the incremental map extension and the
    tombstone filtering the serving regime actually sees). Extra
    records come from a disjoint generator seed and get fresh ``x{i}``
    ids so they never collide with corpus ids.
    """
    records = list(dataset)
    rng = rng_from_seed(SEED, "bench-query-path", len(records))
    probes = [
        records[i]
        for i in sorted(
            rng.sample(range(len(records)), min(QUERY_SAMPLES, len(records)))
        )
    ]
    num_extras = len(probes) // QUERY_UPDATE_EVERY + 1
    extras = [
        Record(f"x{i}", dict(record.fields), entity_id=record.entity_id)
        for i, record in enumerate(
            NCVoterLikeGenerator(
                num_records=num_extras, seed=SEED + 2
            ).generate()
        )
    ]
    stats: dict = {}
    for technique, make in (("lsh", voter_lsh), ("salsh", voter_salsh)):
        start = time.perf_counter()
        online = make().online(records)
        online.query(probes[0])  # untimed: folds the lazy query maps
        build_seconds = time.perf_counter() - start

        static_samples = []
        for probe in probes:
            t0 = time.perf_counter()
            online.query(probe)
            static_samples.append(time.perf_counter() - t0)

        interleaved_samples = []
        added: list[str] = []
        extra_iter = iter(extras)
        for i, probe in enumerate(probes):
            if i % QUERY_UPDATE_EVERY == 0:
                extra = next(extra_iter, None)
                if extra is not None:
                    online.add(extra)
                    added.append(extra.record_id)
                if len(added) > 2:
                    online.remove(added.pop(0))
            t0 = time.perf_counter()
            online.query(probe)
            interleaved_samples.append(time.perf_counter() - t0)

        stats[technique] = {
            "build_seconds": round(build_seconds, 4),
            "queries": len(probes),
            **_latency_columns(static_samples),
            **_latency_columns(interleaved_samples, prefix="interleaved_"),
        }
    return stats


def _run_durability(dataset) -> dict:
    """Time the durability rung (DESIGN.md, "Durability & crash recovery").

    Three measurements: checkpoint publication and recovery wall time
    for a durable resolver over the full corpus, WAL replay as a pure
    frame-decode rate (the floor recovery can never beat), and the
    journal's cost on the read path — ``resolve_many`` on a
    journal-backed resolver vs the same corpus in a plain one. The
    recovered resolver is asserted equivalent to the live one.
    """
    records = list(dataset)
    rng = rng_from_seed(SEED, "bench-durability", len(records))
    probes = [
        records[i]
        for i in sorted(
            rng.sample(range(len(records)), min(QUERY_SAMPLES, len(records)))
        )
    ]
    stats: dict = {"queries": len(probes)}

    # The journal-overhead ratio compares two runs of the same length
    # (~0.1 s), which two separately-timed windows cannot resolve to a
    # few percent on a loaded shared host — so, like the resilience
    # column, the plain and journal-backed resolvers are timed in one
    # shared window of balanced interleaved rounds and compared by
    # median.
    plain = Resolver(voter_lsh(), records)
    plain.resolve_many(probes[:8])  # untimed: folds the lazy query maps
    with tempfile.TemporaryDirectory() as tmp:
        state_dir = Path(tmp) / "state"
        durable = Resolver(voter_lsh(), records, state_dir=state_dir)
        durable.resolve_many(probes[:8])
        plain_times: list[float] = []
        durable_times: list[float] = []
        for round_index in range(10):
            ordered = (
                (plain, plain_times, durable, durable_times)
                if round_index % 2
                else (durable, durable_times, plain, plain_times)
            )
            for resolver, times in zip(ordered[::2], ordered[1::2]):
                t0 = time.perf_counter()
                resolver.resolve_many(probes)
                times.append(time.perf_counter() - t0)
        plain_seconds = statistics.median(plain_times)
        durable_seconds = statistics.median(durable_times)
        _, checkpoint_seconds = _timed(durable.save, repeats=2)
        start = time.perf_counter()
        recovered = Resolver.open(state_dir)
        recover_seconds = time.perf_counter() - start
        assert recovered.index.blocks() == durable.index.blocks(), (
            "recovered resolver disagrees with the live one — "
            "equivalence broken"
        )
        recovered.close()
        durable.close()
    stats.update(
        {
            "resolve_seconds": round(plain_seconds, 4),
            "resolve_journaled_seconds": round(durable_seconds, 4),
            # Headline column: fractional read-path cost of running
            # behind a live journal; < 5% asserted at the 10k rung.
            "journal_overhead": round(durable_seconds / plain_seconds - 1, 4),
            "checkpoint_seconds": round(checkpoint_seconds, 4),
            "recover_seconds": round(recover_seconds, 4),
        }
    )

    with tempfile.TemporaryDirectory() as tmp:
        wal = Path(tmp) / "wal.log"
        journal = Journal.create(wal, fsync="never")
        template = records[:256]
        for i in range(WAL_REPLAY_OPS):
            record = template[i % len(template)]
            journal.append(
                "add",
                {"records": [[f"w{i}", dict(record.fields), None]]},
            )
        journal.close()
        (entries, _, _), replay_seconds = _timed(
            lambda: read_journal(wal), repeats=3
        )
        assert len(entries) == WAL_REPLAY_OPS, (
            "WAL replay dropped intact frames — decode broken"
        )
    stats.update(
        {
            "wal_replay_ops": WAL_REPLAY_OPS,
            "wal_replay_seconds": round(replay_seconds, 4),
            "wal_replay_ops_per_sec": round(
                WAL_REPLAY_OPS / replay_seconds, 1
            ),
        }
    )
    return stats


def _stage(legacy_seconds: float, array_seconds: float, pairs: int) -> dict:
    legacy_seconds = max(legacy_seconds, 1e-9)
    array_seconds = max(array_seconds, 1e-9)
    return {
        "legacy_seconds": round(legacy_seconds, 4),
        "array_seconds": round(array_seconds, 4),
        "legacy_pairs_per_sec": round(pairs / legacy_seconds, 1),
        "array_pairs_per_sec": round(pairs / array_seconds, 1),
        "speedup": round(legacy_seconds / array_seconds, 2),
    }


def _run_pair_pipeline(dataset, blocks) -> dict:
    """Time enumerate -> evaluate -> meta-block -> match, reference vs array.

    Every stage asserts the two engines produce identical outputs; the
    headline ``pipeline_speedup`` covers the enumerate+evaluate+
    meta-block chain (matching is reported separately because its
    legacy column is capped at MATCH_PAIR_CAP pairs).
    """
    # Ground truth caches are shared by both engines; warm them so the
    # evaluate stage times the measure computation, not the one-off
    # truth derivation.
    dataset.true_matches, dataset.true_match_keys  # noqa: B018

    fresh = lambda: BlockingResult("lsh", blocks)  # noqa: E731
    legacy_pairs, legacy_enum_seconds = _timed(
        lambda: reference.distinct_pairs(fresh()), repeats=2
    )
    pair_keys, array_enum_seconds = _timed(
        lambda: fresh().pair_keys(dataset), repeats=3
    )
    num_pairs = int(pair_keys.size)
    result = fresh()
    assert result.distinct_pairs == legacy_pairs, (
        "array and legacy pair enumeration disagree — equivalence broken"
    )

    # Warm the result-level pair caches so the evaluate stage isolates
    # the intersection + measure arithmetic for both engines.
    result.pair_keys(dataset), result.distinct_pairs  # noqa: B018
    legacy_metrics, legacy_eval_seconds = _timed(
        lambda: reference.evaluate_blocks(result, dataset), repeats=2
    )
    array_metrics, array_eval_seconds = _timed(
        lambda: evaluate_blocks(result, dataset), repeats=3
    )
    assert array_metrics == legacy_metrics, (
        "array and legacy evaluation disagree — equivalence broken"
    )

    legacy_meta, legacy_meta_seconds = _timed(
        lambda: reference.run_metablocking(
            result, PIPELINE_SCHEME, PIPELINE_ALGORITHM
        ),
        repeats=1,
    )
    array_meta, array_meta_seconds = _timed(
        lambda: run_metablocking(result, PIPELINE_SCHEME, PIPELINE_ALGORITHM),
        repeats=2,
    )
    assert array_meta.blocks == legacy_meta.blocks, (
        "array and legacy meta-blocking disagree — equivalence broken"
    )

    match_pairs = list(array_meta.blocks)[:MATCH_PAIR_CAP]
    matcher = SimilarityMatcher(
        {"first_name": "jaccard_q2", "last_name": "jaccard_q2"},
        match_threshold=0.85,
        possible_threshold=0.65,
    )
    matcher.score_pairs(dataset, match_pairs[:64])  # warm attribute caches
    legacy_decisions, legacy_match_seconds = _timed(
        lambda: reference.match_pairs(matcher, dataset, match_pairs),
        repeats=1,
    )
    array_decisions, array_match_seconds = _timed(
        lambda: matcher.match_pairs(dataset, match_pairs), repeats=2
    )
    assert array_decisions == legacy_decisions, (
        "batch and per-pair matching disagree — equivalence broken"
    )

    legacy_total = legacy_enum_seconds + legacy_eval_seconds + legacy_meta_seconds
    array_total = array_enum_seconds + array_eval_seconds + array_meta_seconds
    return {
        "num_candidate_pairs": num_pairs,
        "retained_pairs": len(array_meta.blocks),
        "scheme": PIPELINE_SCHEME,
        "algorithm": PIPELINE_ALGORITHM,
        "enumerate": _stage(legacy_enum_seconds, array_enum_seconds, num_pairs),
        "evaluate": _stage(legacy_eval_seconds, array_eval_seconds, num_pairs),
        "metablock": _stage(legacy_meta_seconds, array_meta_seconds, num_pairs),
        "match": {
            **_stage(
                legacy_match_seconds, array_match_seconds, len(match_pairs)
            ),
            "pairs_scored": len(match_pairs),
            "num_matches": sum(
                1 for d in array_decisions if d.label == "match"
            ),
        },
        "legacy_pipeline_seconds": round(legacy_total, 4),
        "array_pipeline_seconds": round(array_total, 4),
        "legacy_pipeline_pairs_per_sec": round(num_pairs / max(legacy_total, 1e-9), 1),
        "array_pipeline_pairs_per_sec": round(num_pairs / max(array_total, 1e-9), 1),
        "pipeline_speedup": round(max(legacy_total, 1e-9) / max(array_total, 1e-9), 2),
    }


#: Survey baselines on the batch key-extraction path, near-linear cost —
#: safe to time at 50k+. QGr/canopy/StringMap also run on the batch key
#: path but their per-key expansion is super-linear, so the 50k ladder
#: would time the algorithm, not the engine (see benchmarks/README.md).
BASELINES = {
    "TBlo": lambda: StandardBlocker(VOTER_ATTRS),
    "SorA": lambda: ArraySortedNeighbourhood(VOTER_ATTRS, window=3),
    "SorII": lambda: InvertedIndexSortedNeighbourhood(VOTER_ATTRS, window=3),
    "SuA": lambda: SuffixArrayBlocker(VOTER_ATTRS),
}


def _run_baselines(dataset) -> dict:
    n = len(dataset)
    stats = {}
    for name, make in BASELINES.items():
        result, seconds = _timed(lambda: make().block(dataset), repeats=2)
        stats[name] = {
            "num_blocks": result.num_blocks,
            "seconds": round(seconds, 4),
            "records_per_sec": round(n / seconds, 1),
        }
    return stats


def run_perf() -> dict:
    report: dict = {
        "benchmark": "perf_blocking",
        "dataset": "NCVoterLike",
        "attributes": list(VOTER_ATTRS),
        "parameters": {"q": 2, "k": 9, "l": 15, "seed": SEED},
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "sizes": {},
    }
    warmup = NCVoterLikeGenerator(num_records=200, seed=SEED + 1).generate()
    for n in sizes():
        dataset = NCVoterLikeGenerator(num_records=n, seed=SEED).generate()
        blocks = voter_lsh(k=PIPELINE_K).block(dataset).blocks
        report["sizes"][str(n)] = {
            "lsh": _run_engine_pair(
                lambda **kw: voter_lsh(**kw), dataset, warmup, stream="lsh"
            ),
            "salsh": _run_engine_pair(
                lambda **kw: voter_salsh(**kw), dataset, warmup, stream="salsh"
            ),
            "baselines": _run_baselines(dataset),
            "pair_pipeline": _run_pair_pipeline(dataset, blocks),
            "query_path": _run_query_path(dataset),
            "durability": _run_durability(dataset),
        }
    return report


def check_pair_pipeline(report: dict) -> None:
    """Guard against a silent fallback to the legacy per-pair path.

    Every ladder size must carry the end-to-end columns with a real
    win; the committed 10k/50k run demonstrates the >= 10x headline,
    while CI smoke sizes only assert >= 1x to stay timing-robust.
    """
    for n, entry in report["sizes"].items():
        pipeline = entry.get("pair_pipeline")
        assert pipeline is not None, f"size {n}: pair_pipeline columns missing"
        speedup = pipeline.get("pipeline_speedup")
        assert speedup is not None and speedup >= 1.0, (
            f"size {n}: pair-pipeline speedup {speedup!r} < 1 — "
            "array engine fell back to legacy-path performance"
        )


def check_sharded_stream(report: dict) -> None:
    """Guard the sharded and streamed-SA-LSH columns.

    Mirrors :func:`check_pair_pipeline`: the columns must exist at
    every ladder size and may never fall below the per-record legacy
    floor (a <1 ratio would mean the new runtime is slower than the
    path it replaced — a silent regression). The ≥2× multicore headline
    vs the *serial batch* engine is additionally asserted at 50k when
    the host actually has ≥4 cores; on smaller hosts it is recorded
    alongside ``cpu_count`` for the next multicore run to check.
    """
    cores = report.get("cpu_count") or 1
    for n, entry in report["sizes"].items():
        for technique in ("lsh", "salsh"):
            stats = entry[technique]
            speedup = stats.get("sharded_speedup")
            assert speedup is not None and speedup >= 1.0, (
                f"size {n} {technique}: sharded speedup {speedup!r} < 1 — "
                "process sharding fell below the per-record floor"
            )
            if (
                cores >= SHARDED_HEADLINE_CORES
                and int(n) >= SHARDED_HEADLINE_SIZE
            ):
                parallel = stats.get("sharded_parallel_speedup")
                assert parallel is not None and parallel >= (
                    SHARDED_HEADLINE_SPEEDUP
                ), (
                    f"size {n} {technique}: sharded multicore speedup "
                    f"{parallel!r} < {SHARDED_HEADLINE_SPEEDUP} on a "
                    f"{cores}-core host"
                )
        streamed = entry["salsh"].get("streamed_salsh_speedup")
        assert streamed is not None and streamed >= 1.0, (
            f"size {n}: streamed SA-LSH speedup {streamed!r} < 1 — "
            "streaming fell below the per-record floor"
        )


def check_pooled(report: dict) -> None:
    """Guard the persistent shard pool columns.

    The pooled columns must exist at every ladder size and never fall
    below the per-record legacy floor. At the 10k+ headline sizes the
    warm pool must additionally beat the per-call ephemeral-pool path
    (``sharded_seconds``) by ≥1.5× — the amortisation the pool exists
    for, since every per-call pool re-pays fork + slab transport.
    """
    for n, entry in report["sizes"].items():
        for technique in ("lsh", "salsh"):
            stats = entry[technique]
            floor = stats.get("pooled_speedup")
            assert floor is not None and floor >= 1.0, (
                f"size {n} {technique}: pooled speedup {floor!r} < 1 — "
                "the warm pool fell below the per-record floor"
            )
            fresh = stats.get("pooled_vs_fresh_speedup")
            assert fresh is not None, (
                f"size {n} {technique}: pooled_vs_fresh_speedup missing"
            )
            # Below the headline size the warm-vs-fresh ratio compares
            # two same-order parallel paths and can flake on loaded CI
            # runners, so it is recorded but only asserted at 10k+
            # (the floor guard above still applies everywhere).
            if int(n) >= POOLED_HEADLINE_SIZE:
                assert fresh >= POOLED_HEADLINE_SPEEDUP, (
                    f"size {n} {technique}: warm-pool speedup {fresh!r} "
                    f"vs the per-call pool < {POOLED_HEADLINE_SPEEDUP} "
                    "— pool reuse is not amortising the per-call "
                    "fork/pickle overhead"
                )


def check_quality(report: dict) -> None:
    """Gate blocking quality on Fig. 9's claim at every ladder size.

    The speed columns alone cannot tell a faster engine from one that
    blocks worse. So at each size SA-LSH's pair quality must beat
    LSH's, at a pair completeness no more than ``QUALITY_PC_TOLERANCE``
    below it: the semantic gate exists to cut false candidates without
    losing true ones.
    """
    for n, entry in report["sizes"].items():
        lsh, salsh = entry["lsh"], entry["salsh"]
        for stats in (lsh, salsh):
            for column in ("pc", "pq"):
                assert column in stats, (
                    f"size {n}: quality column {column!r} missing"
                )
        assert salsh["pq"] > lsh["pq"], (
            f"size {n}: SA-LSH PQ {salsh['pq']} <= LSH PQ {lsh['pq']} — "
            "the semantic gate no longer improves pair quality"
        )
        assert salsh["pc"] >= lsh["pc"] - QUALITY_PC_TOLERANCE, (
            f"size {n}: SA-LSH PC {salsh['pc']} is more than "
            f"{QUALITY_PC_TOLERANCE} below LSH PC {lsh['pc']} — the "
            "semantic gate is losing true matches"
        )


def check_resilience(report: dict) -> None:
    """Guard the cost of the fault-tolerance machinery.

    ``resilience_overhead`` compares the default pooled run (fault
    hooks consulted, slab checksums verified) against the same warm
    pool with integrity checking switched off. The columns must exist
    at every ladder size; at the 10k headline rung the overhead must
    stay under ``RESILIENCE_OVERHEAD_BUDGET`` — robustness that taxes
    the happy path more than a few percent is a regression, not a
    feature. The other sizes are recorded for trajectory only: below
    10k the runs are too short to resolve a few-percent ratio, and
    above it the measurement window stretches far enough that
    shared-host load drift swamps the same few percent.
    """
    for n, entry in report["sizes"].items():
        for technique in ("lsh", "salsh"):
            stats = entry[technique]
            for column in ("pooled_bare_seconds", "resilience_overhead"):
                assert column in stats, (
                    f"size {n} {technique}: resilience column "
                    f"{column!r} missing"
                )
            if int(n) == POOLED_HEADLINE_SIZE:
                overhead = stats["resilience_overhead"]
                assert overhead < RESILIENCE_OVERHEAD_BUDGET, (
                    f"size {n} {technique}: fault-tolerance overhead "
                    f"{overhead!r} >= {RESILIENCE_OVERHEAD_BUDGET} — "
                    "the integrity/fault hooks are taxing the happy "
                    "path"
                )


def check_query_path(report: dict) -> None:
    """Guard the online single-record query path.

    The columns must exist for both techniques at every ladder size
    (a missing entry means the rung silently stopped running); at the
    50k+ sizes the static p50 must stay under QUERY_P50_BUDGET_MS —
    the whole point of the incremental index is that a query costs a
    handful of bucket probes, not a corpus pass. The p99 and
    interleaved columns are recorded for trajectory, not asserted:
    single queries are too short for tail latencies to be
    timing-robust on shared CI hosts.
    """
    for n, entry in report["sizes"].items():
        query_path = entry.get("query_path")
        assert query_path is not None, f"size {n}: query_path columns missing"
        for technique in ("lsh", "salsh"):
            stats = query_path.get(technique)
            assert stats is not None, (
                f"size {n} {technique}: query-path columns missing"
            )
            for column in ("build_seconds", "p50_ms", "p99_ms",
                           "interleaved_p50_ms", "interleaved_p99_ms"):
                assert column in stats, (
                    f"size {n} {technique}: query-path column "
                    f"{column!r} missing"
                )
            if int(n) >= QUERY_BUDGET_SIZE:
                p50 = stats["p50_ms"]
                assert p50 < QUERY_P50_BUDGET_MS, (
                    f"size {n} {technique}: single-record query p50 "
                    f"{p50}ms >= {QUERY_P50_BUDGET_MS}ms — the query "
                    "path is no longer corpus-size-independent"
                )


def check_durability(report: dict) -> None:
    """Guard the durability rung.

    The columns must exist at every ladder size. The WAL frame-decode
    rate is size-independent and asserted everywhere (≥ 10k ops/s —
    below that, journal-tail replay would dominate recovery). The
    journal's read-path overhead is asserted < 5% only at the 10k
    headline rung — shorter runs cannot resolve a few-percent ratio,
    longer ones smear it with shared-host load drift (the same
    rationale as ``check_resilience``).
    """
    for n, entry in report["sizes"].items():
        stats = entry.get("durability")
        assert stats is not None, f"size {n}: durability columns missing"
        for column in (
            "checkpoint_seconds",
            "recover_seconds",
            "wal_replay_seconds",
            "wal_replay_ops_per_sec",
            "journal_overhead",
        ):
            assert column in stats, (
                f"size {n}: durability column {column!r} missing"
            )
        rate = stats["wal_replay_ops_per_sec"]
        assert rate >= WAL_REPLAY_MIN_OPS_PER_SEC, (
            f"size {n}: WAL replay at {rate} ops/s < "
            f"{WAL_REPLAY_MIN_OPS_PER_SEC} — recovery would be "
            "dominated by journal-tail decode"
        )
        if int(n) == DURABILITY_HEADLINE_SIZE:
            overhead = stats["journal_overhead"]
            assert overhead < JOURNAL_OVERHEAD_BUDGET, (
                f"size {n}: journaling overhead {overhead!r} >= "
                f"{JOURNAL_OVERHEAD_BUDGET} on resolve_many — the "
                "journal is taxing the read path"
            )


def _persist(report: dict) -> None:
    RESULT_JSON.write_text(json.dumps(report, indent=2) + "\n")
    rows = []
    for n, entry in report["sizes"].items():
        for technique in ("lsh", "salsh"):
            stats = entry[technique]
            rows.append([
                n,
                technique.upper(),
                stats["per_record_seconds"],
                stats["batch_seconds"],
                stats["sharded_seconds"],
                stats["pooled_seconds"],
                stats.get(
                    "streamed_seconds", stats.get("streamed_salsh_seconds", "-")
                ),
                stats["batch_records_per_sec"],
                stats["speedup"],
                stats["sharded_parallel_speedup"],
                stats["pooled_vs_fresh_speedup"],
                stats["resilience_overhead"],
                stats["pc"],
                stats["pq"],
            ])
    write_result(
        "perf_blocking",
        format_table(
            ["records", "blocker", "t(loop)s", "t(batch)s",
             f"t(p={bench_processes()})s",
             "t(pool)s", "t(stream)s", "rec/s(batch)", "speedup",
             "shard.speedup", "pool.speedup", "resil.ovh", "PC", "PQ"],
            rows,
            title="Perf — per-record vs batch vs sharded vs pooled vs "
                  "streamed (q=2, k=9, l=15)",
        ),
    )
    baseline_rows = [
        [n, name, stats["seconds"], stats["records_per_sec"], stats["num_blocks"]]
        for n, entry in report["sizes"].items()
        for name, stats in entry["baselines"].items()
    ]
    write_result(
        "perf_baselines",
        format_table(
            ["records", "technique", "t(s)", "rec/s", "blocks"],
            baseline_rows,
            title="Perf — survey baselines on the batch key path",
        ),
    )
    pipeline_rows = []
    for n, entry in report["sizes"].items():
        pipeline = entry["pair_pipeline"]
        pipeline_rows.append([
            n,
            pipeline["num_candidate_pairs"],
            pipeline["enumerate"]["speedup"],
            pipeline["evaluate"]["speedup"],
            pipeline["metablock"]["speedup"],
            pipeline["match"]["speedup"],
            pipeline["array_pipeline_pairs_per_sec"],
            pipeline["pipeline_speedup"],
        ])
    write_result(
        "perf_pair_pipeline",
        format_table(
            ["records", "pairs", "enum.x", "eval.x", "meta.x", "match.x",
             "pairs/s(array)", "pipeline.x"],
            pipeline_rows,
            title="Perf — candidate-pair pipeline, reference vs array "
                  f"({PIPELINE_SCHEME}+{PIPELINE_ALGORITHM}, "
                  "speedups per stage)",
        ),
    )
    query_rows = []
    for n, entry in report["sizes"].items():
        for technique in ("lsh", "salsh"):
            stats = entry["query_path"][technique]
            query_rows.append([
                n,
                technique.upper(),
                stats["build_seconds"],
                stats["p50_ms"],
                stats["p99_ms"],
                stats["interleaved_p50_ms"],
                stats["interleaved_p99_ms"],
            ])
    write_result(
        "perf_query_path",
        format_table(
            ["records", "blocker", "build(s)", "p50(ms)", "p99(ms)",
             "upd.p50(ms)", "upd.p99(ms)"],
            query_rows,
            title="Perf — online single-record query path "
                  f"({QUERY_SAMPLES} queries, add/remove every "
                  f"{QUERY_UPDATE_EVERY} in the upd. columns)",
        ),
    )
    durability_rows = []
    for n, entry in report["sizes"].items():
        stats = entry["durability"]
        durability_rows.append([
            n,
            stats["checkpoint_seconds"],
            stats["recover_seconds"],
            stats["wal_replay_ops_per_sec"],
            stats["journal_overhead"],
        ])
    write_result(
        "perf_durability",
        format_table(
            ["records", "ckpt(s)", "recover(s)", "wal.ops/s", "jrnl.ovh"],
            durability_rows,
            title="Perf — durability: checkpoint/recover, WAL replay "
                  f"({WAL_REPLAY_OPS} frames), journal overhead on "
                  "resolve_many",
        ),
    )
    print(f"[written to {RESULT_JSON.name}]")


def test_perf_blocking(benchmark):
    report = benchmark.pedantic(run_perf, rounds=1, iterations=1)
    _persist(report)
    for entry in report["sizes"].values():
        for technique in ("lsh", "salsh"):
            # The batch engine must never be slower; the headline >= 5x
            # claim is asserted on the committed 10k/50k run, while CI
            # smoke sizes only check a real win to stay timing-robust.
            assert entry[technique]["speedup"] > 1.0
            # Streamed/sharded/pooled equivalence is asserted inside
            # the run; multicore *speedup* is only meaningful with
            # spare cores, so it is recorded (with cpu_count) rather
            # than asserted here.
    check_pair_pipeline(report)
    check_sharded_stream(report)
    check_pooled(report)
    check_quality(report)
    check_resilience(report)
    check_query_path(report)
    check_durability(report)


def main() -> int:
    report = run_perf()
    _persist(report)
    check_pair_pipeline(report)
    check_sharded_stream(report)
    check_pooled(report)
    check_quality(report)
    check_resilience(report)
    check_query_path(report)
    check_durability(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
