"""The three workloads: ``dedup``, ``link`` and ``serve``.

Each is a closed loop with one caller in one process. ``dedup`` and
``link`` repeat a batch *unit* on a fresh corpus generated from
(workload seed, unit index); ``serve`` feeds a seeded op stream to one
durable :class:`~repro.er.resolver.Resolver`. A workload returns plain
dicts of metric values; ``run.py`` attaches units and prints them.

Quality and count metrics are taken over a fixed prefix (the first
``QUALITY_UNITS`` units or ``QUALITY_OPS`` ops), which every run
completes, so they repeat exactly for a seed however fast the host is.
Timing metrics use every unit or op the run measured.

Gated times are reference seconds (see ``reference.py``): the CPU time
of the timed work, scaled by the host's speed as read by a fixed
reference kernel right before and right after it. Every workload is one
serial thread, so on an unshared core at the reference speed its CPU
time is its wall time. Wall and CPU times are kept in the run record.
"""

from __future__ import annotations

import gc
import hashlib
import random
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro.core import SALSHBlocker
from repro.core.base import BipartiteBlockingResult, BlockingResult
from repro.core.salsh_blocker import OnlineSALSHIndex
from repro.datasets import CoraLikeGenerator, NCVoterLikeGenerator
from repro.er import clustering
from repro.er.matching import SimilarityMatcher
from repro.er.resolver import Resolver
from repro.evaluation import metrics as evaluation
from repro.lsh.index import BandedLSHIndex
from repro.metablocking import pipeline as metablocking
from repro.minhash.minhash import MinHasher
from repro.minhash.shingling import Shingler
from repro.records import Dataset, LinkedCorpus, Record
from repro.records.dataset import RecordStore
from repro.semantic import (
    PatternSemanticFunction,
    VoterSemanticFunction,
    cora_patterns,
)
from repro.semantic.hashing import WWaySemanticHashFamily
from repro.semantic.semhash import SemhashEncoder
from repro.store.journal import Journal, journal_path
from repro.taxonomy.builders import bibliographic_tree

import checks
from reference import REFERENCE_S, HostClock
from spans import Tracer, wrapped

#: Set-up is repeated this many times per untraced run; setup_s is the
#: import time plus the median repetition.
SETUP_REPEATS = 3
#: Batch quality/count metrics cover the first this-many units.
QUALITY_UNITS = 6
#: Serve quality/count metrics cover the first this-many ops.
QUALITY_OPS = 20_000
#: Probes re-resolved after Resolver.open to prove writes survived.
REOPEN_PROBES = 200
#: Traced serve runs alternate traced and untraced blocks of this size.
OPS_PER_BLOCK = 100
#: Serve throughput is a median over segments of this many blocks, each
#: bracketed by host-speed readings (~1 s of ops against ~0.2 s).
BLOCKS_PER_SEGMENT = 30
#: Blocker seed: configuration, not input, so fixed across seeds.
BLOCKER_SEED = 42


def input_seed(workload: str, seed: int, part: object) -> int:
    """Generator seed for one input of a run, derived from its seed."""
    text = f"{workload}:{seed}:{part}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _f1(hits: float, predicted: float, true: float) -> float:
    precision, recall = _ratio(hits, predicted), _ratio(hits, true)
    return _ratio(2 * precision * recall, precision + recall)


def _spread_summary(values: list[float]) -> dict[str, float]:
    return {"n": len(values), "min": min(values), "median": _median(values), "max": max(values)}


def _timed(clock: HostClock, fn, *args):
    """``(fn(*args), wall s, CPU s, reference s)``."""
    clock.read()
    start, cpu_start = time.perf_counter(), time.process_time()
    value = fn(*args)
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - start
    return value, wall, cpu, clock.measure(cpu)


def _setup_seconds(import_s: float, clock: HostClock, setups: list[float]) -> float:
    """Import time, scaled by the first reading, plus the median set-up."""
    return import_s * REFERENCE_S / clock.readings[0] + _median(setups)


# -- layer boundaries -------------------------------------------------------


def _count_shingles(tracer, corpus, _args, _kwargs) -> None:
    tracer.count("minhash.shingles", corpus.token_vocab.size)


def _count_bucket_entries(tracer, _result, args, kwargs) -> None:
    index, record_ids = args[0], args[1]
    entries = kwargs.get("gate_entries", args[3] if len(args) > 3 else None)
    if entries is None:
        entries = [None] * index.num_tables
    tracer.count(
        "lsh.bucket_entries",
        sum(len(record_ids) if e is None else len(e[0]) for e in entries),
    )


#: (owner, attribute, span name, counter). A span name is the per-layer
#: metric it feeds, without the unit suffix.
BOUNDARIES = [
    (Shingler, "shingle_corpus", "minhash.shingle", _count_shingles),
    (MinHasher, "signature_matrix", "minhash.signature", None),
    (Shingler, "shingle_ids", "minhash.probe", None),
    (MinHasher, "signature", "minhash.probe", None),
    (SemhashEncoder, "__init__", "semantic.fit", None),
    (SemhashEncoder, "signature_matrix", "semantic.encode", None),
    (SemhashEncoder, "encode", "semantic.probe_encode", None),
    (WWaySemanticHashFamily, "gate_entries", "semantic.gate", None),
    (BandedLSHIndex, "add_many", "lsh.insert", _count_bucket_entries),
    (BandedLSHIndex, "remove", "lsh.insert", None),
    (BandedLSHIndex, "blocks", "lsh.group", None),
    (BandedLSHIndex, "query_keys", "lsh.probe", None),
    (SALSHBlocker, "block", "core.block", None),
    (SALSHBlocker, "block_pair", "core.block", None),
    (OnlineSALSHIndex, "blocks", "core.block", None),
    (OnlineSALSHIndex, "add_many", "core.insert", None),
    (OnlineSALSHIndex, "remove", "core.insert", None),
    (OnlineSALSHIndex, "query", "core.query", None),
    (BlockingResult, "pair_keys", "records.pairs", None),
    (BipartiteBlockingResult, "cross_pair_keys", "records.pairs", None),
    (BipartiteBlockingResult, "cross_pairs", "records.pairs", None),
    (RecordStore, "add_many", "records.store", None),
    (RecordStore, "remove", "records.store", None),
    (evaluation, "evaluate_blocks", "evaluation.evaluate", None),
    (evaluation, "evaluate_linkage", "evaluation.evaluate", None),
    (metablocking, "run_metablocking", "metablocking.prune", None),
    (SimilarityMatcher, "match_pairs", "er.match", None),
    (SimilarityMatcher, "score_against", "er.score", None),
    (clustering, "resolve", "er.cluster", None),
    (Resolver, "resolve_one", "er.resolve", None),
    (Resolver, "add_many", "er.write", None),
    (Resolver, "remove", "er.write", None),
    (Journal, "append", "store.journal", None),
]

#: Batch per-layer time metrics: span name -> metric (seconds per unit).
BATCH_TIMES = {
    "minhash.shingle": "minhash.shingle_s",
    "minhash.signature": "minhash.signature_s",
    "semantic.fit": "semantic.fit_s",
    "semantic.encode": "semantic.encode_s",
    "semantic.gate": "semantic.gate_s",
    "lsh.insert": "lsh.insert_s",
    "lsh.group": "lsh.group_s",
    "records.pairs": "records.pairs_s",
    "evaluation.evaluate": "evaluation.evaluate_s",
    "metablocking.prune": "metablocking.prune_s",
    "er.match": "er.match_s",
    "er.cluster": "er.cluster_s",
}
#: Serve per-layer time metrics: span name -> (op type, metric in ms).
SERVE_TIMES = {
    "minhash.probe": ("read", "minhash.probe_ms"),
    "semantic.probe_encode": ("read", "semantic.probe_encode_ms"),
    "lsh.probe": ("read", "lsh.probe_ms"),
    "core.query": ("read", "core.query_ms"),
    "er.score": ("read", "er.score_ms"),
    "er.resolve": ("read", "er.resolve_ms"),
    "store.journal": ("write", "store.journal_ms"),
    "records.store": ("write", "records.store_ms"),
    "core.insert": ("write", "core.insert_ms"),
    "lsh.insert": ("write", "lsh.insert_ms"),
    "er.write": ("write", "er.write_ms"),
}


@dataclass
class Result:
    """What a workload measured; ``run.py`` prints it."""

    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    samples: dict[str, int]
    attempted: int
    failed: int
    record: dict


def _attempt(fn, *args):
    """``(ok, value)``; an exception is a failed unit or op, not a crash."""
    try:
        return True, fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False, None


# -- batch workloads --------------------------------------------------------


@dataclass
class UnitOutput:
    result: BlockingResult
    metrics: object
    pruned: BlockingResult | None
    decisions: list
    matched: list
    clusters: list


class DedupWorkload:
    """Cora-like dedup with SA-LSH (pattern ζ) at the paper's Cora setting."""

    name = "dedup"
    records_per_unit = 5000
    entities_per_unit = 500

    def build(self):
        semantic_function = PatternSemanticFunction(
            bibliographic_tree(), cora_patterns()
        )
        blocker = SALSHBlocker(
            ("authors", "title"), q=4, k=4, l=63,
            semantic_function=semantic_function, seed=BLOCKER_SEED,
        )
        matcher = SimilarityMatcher(
            {"title": "jaccard_q2", "authors": "jaccard_q2"},
            match_threshold=0.7, possible_threshold=0.5,
        )
        return blocker, matcher

    def corpus(self, seed: int) -> Dataset:
        return CoraLikeGenerator(
            num_records=self.records_per_unit,
            num_entities=self.entities_per_unit,
            seed=seed,
        ).generate()

    def unit(self, ctx, corpus: Dataset) -> UnitOutput:
        blocker, matcher = ctx
        result = blocker.block(corpus)
        metrics = evaluation.evaluate_blocks(result, corpus)
        pruned = metablocking.run_metablocking(result, "ECBS", "WNP")
        decisions = matcher.match_pairs(corpus, pruned.blocks)
        matched = [d.pair for d in decisions if d.label == "match"]
        clusters = clustering.resolve(corpus, matched)
        return UnitOutput(result, metrics, pruned, decisions, matched, clusters)

    def check(self, corpus: Dataset, out: UnitOutput, first: bool) -> None:
        ids = set(corpus.record_ids)
        checks.check_blocks(out.result.blocks, ids)
        checks.check_partition(out.clusters, ids)
        if first:
            checks.check_dedup_quality(out.result.blocks, corpus, out.metrics)

    def records(self, corpus: Dataset):
        return corpus

    def true_pairs(self, corpus: Dataset) -> int:
        return corpus.num_true_matches


class LinkWorkload:
    """NC-Voter-like linkage: typo'd duplicates (source) vs clean rows."""

    name = "link"
    records_per_unit = 30_000

    def build(self):
        blocker = SALSHBlocker(
            ("first_name", "last_name"), q=2, k=9, l=15,
            semantic_function=VoterSemanticFunction(), seed=BLOCKER_SEED,
        )
        return blocker, voter_matcher()

    def corpus(self, seed: int) -> LinkedCorpus:
        dataset = NCVoterLikeGenerator(
            num_records=self.records_per_unit, seed=seed,
            exact_duplicate_fraction=0.0,
        ).generate()
        source = [r for r in dataset if r.record_id.startswith("d")]
        target = [r for r in dataset if r.record_id.startswith("v")]
        return LinkedCorpus(
            Dataset(source, name="voter-dups"), Dataset(target, name="voter-clean")
        )

    def unit(self, ctx, linked: LinkedCorpus) -> UnitOutput:
        blocker, matcher = ctx
        result = blocker.block_pair(linked)
        metrics = evaluation.evaluate_linkage(result)
        union = linked.union
        decisions = matcher.match_pairs(union, result.cross_pairs)
        matched = [d.pair for d in decisions if d.label == "match"]
        clusters = clustering.resolve(union, matched)
        return UnitOutput(result, metrics, None, decisions, matched, clusters)

    def check(self, linked: LinkedCorpus, out: UnitOutput, first: bool) -> None:
        ids = set(linked.union.record_ids)
        checks.check_blocks(out.result.blocks, ids)
        checks.check_partition(out.clusters, ids)
        checks.check_cross_pairs(
            out.result.cross_pairs,
            set(linked.source.record_ids),
            set(linked.target.record_ids),
        )
        if first:
            checks.check_link_quality(out.result.blocks, linked, out.metrics)

    def records(self, linked: LinkedCorpus):
        return linked.union

    def true_pairs(self, linked: LinkedCorpus) -> int:
        return linked.num_true_matches


def voter_matcher() -> SimilarityMatcher:
    """q-gram Jaccard on both names and the zip code.

    ``jaccard_q2`` rather than ``exact`` on the zip: the durable
    resolver pickles its matcher, and the ``exact`` measure is a lambda.
    """
    return SimilarityMatcher(
        {"first_name": "jaccard_q2", "last_name": "jaccard_q2", "zip": "jaccard_q2"},
        match_threshold=0.75, possible_threshold=0.5,
    )


def _score_unit(workload, corpus, out: UnitOutput, tally: Counter) -> None:
    records = workload.records(corpus)
    hits, predicted, true = checks.cluster_pair_counts(out.clusters, records)
    entity_of = {r.record_id: r.entity_id for r in records}
    retained = out.pruned.blocks if out.pruned is not None else ()
    tally.update(
        units=1,
        tp=out.metrics.num_true_positives,
        true=workload.true_pairs(corpus),
        distinct=out.metrics.num_distinct_pairs,
        multiset=out.metrics.num_multiset_pairs,
        blocks=len(out.result.blocks),
        retained=len(retained),
        retained_true=sum(
            1 for a, b in retained
            if entity_of[a] is not None and entity_of[a] == entity_of[b]
        ),
        scored=len(out.decisions),
        matched=len(out.matched),
        cluster_hits=hits,
        cluster_predicted=predicted,
        cluster_true=true,
    )


def _digests(out: UnitOutput) -> tuple[str, str]:
    return checks.digest(out.result.blocks), checks.digest(out.clusters)


def run_batch(workload, seed: int, seconds: float, traced: bool, import_s: float,
              out_dir: Path) -> Result:
    def set_up(rep):
        ctx = workload.build()
        workload.unit(ctx, workload.corpus(input_seed(workload.name, seed, f"warmup{rep}")))
        return ctx

    clock = HostClock()
    setups = {"ref": [], "cpu": [], "wall": []}
    for rep in range(1 if traced else SETUP_REPEATS):
        ctx, wall, cpu, ref = _timed(clock, set_up, rep)
        setups["ref"].append(ref)
        setups["cpu"].append(cpu)
        setups["wall"].append(wall)
        gc.collect()

    tally, tracer = Counter(), Tracer()
    times, cpu_times, ref_times = [], [], []
    traced_times, unit_self, covered, counts = [], [], [], []
    attempted = failed = 0
    first_digests = None
    loop_start = time.perf_counter()
    index = 0
    while index < QUALITY_UNITS or time.perf_counter() - loop_start < seconds:
        unit_seed = input_seed(workload.name, seed, index)
        # Traced runs run each unit both ways on equal fresh corpora,
        # alternating which goes first, and compare their outputs.
        passes = ((False, True) if index % 2 == 0 else (True, False)) if traced else (False,)
        outputs = {}
        for with_trace in passes:
            corpus = workload.corpus(unit_seed)
            gc.collect()
            attempted += 1
            if with_trace:
                with wrapped(tracer, BOUNDARIES):
                    ok, value = _attempt(
                        tracer.call, f"unit:{index}", workload.unit, ctx, corpus
                    )
                if ok:
                    out, wall, cover, self_times = value
                    traced_times.append(wall)
                    covered.append(cover)
                    unit_self.append(self_times)
                    if index < QUALITY_UNITS:
                        counts.append(dict(tracer.counts))
            else:
                (ok, out), wall, cpu, ref = _timed(clock, _attempt, workload.unit, ctx, corpus)
                if ok:
                    times.append(wall)
                    cpu_times.append(cpu)
                    ref_times.append(ref)
            if not ok:
                failed += 1
                continue
            outputs[with_trace] = (corpus, out)
        if len(outputs) == len(passes):
            corpus, out = outputs[passes[-1]]
            workload.check(corpus, out, first=index == 0)
            digests = {_digests(o) for _, o in outputs.values()}
            if len(digests) != 1:
                raise checks.CheckFailed(
                    f"unit {index}: traced and untraced outputs differ {sorted(digests)}"
                )
            if index == 0:
                first_digests = digests.pop()
            if index < QUALITY_UNITS:
                _score_unit(workload, corpus, out, tally)
        index += 1
    if traced:
        tracer.write(out_dir / f"trace-{workload.name}-seed{seed}.tsv.gz")

    units = tally["units"]
    end_to_end = {
        "setup_s": _setup_seconds(import_s, clock, setups["ref"]),
        "throughput_per_s": _ratio(workload.records_per_unit, _median(ref_times)),
        "pc": _ratio(tally["tp"], tally["true"]),
        "pq": _ratio(tally["tp"], tally["distinct"]),
        "match_f1": _f1(tally["cluster_hits"], tally["cluster_predicted"], tally["cluster_true"]),
        "ok_frac": _ratio(attempted - failed, attempted),
    }
    per_layer = {}
    if traced:
        for span, metric in BATCH_TIMES.items():
            if any(span in s for s in unit_self):
                per_layer[metric] = _median([s.get(span, 0.0) for s in unit_self])
        per_layer["core.block_s"] = _median(
            [sum(v for k, v in s.items() if k.startswith("core.")) for s in unit_self]
        )
        for name in ("minhash.shingles", "lsh.bucket_entries"):
            per_layer[name] = _ratio(sum(c.get(name, 0.0) for c in counts), len(counts))
        per_layer.update({
            "core.blocks": _ratio(tally["blocks"], units),
            "records.candidate_pairs": _ratio(tally["distinct"], units),
            "records.redundancy": _ratio(tally["multiset"], tally["distinct"]),
            "er.pairs_scored": _ratio(tally["scored"], units),
            "er.match_frac": _ratio(tally["matched"], tally["scored"]),
            "trace.coverage": _ratio(sum(covered), sum(traced_times)),
            "trace.overhead": _ratio(_median(traced_times), _median(times)) - 1.0,
        })
        if "metablocking.prune_s" in per_layer:
            per_layer["metablocking.retained_pairs"] = _ratio(tally["retained"], units)
            per_layer["metablocking.pq"] = _ratio(tally["retained_true"], tally["retained"])
    samples = {
        "setup_s": len(setups["ref"]),
        "throughput_per_s": len(ref_times),
        "pc": int(units), "pq": int(units), "match_f1": int(units),
        "ok_frac": attempted,
        "per_layer_times": len(traced_times),
        "per_layer_counts": len(counts),
    }
    record = {
        "import_cpu_s": import_s,
        "setup_repeats_s": setups,
        "unit_s": {"ref": ref_times, "cpu": cpu_times, "wall": times},
        "cpu_throughput_per_s": _ratio(workload.records_per_unit, _median(cpu_times)),
        "wall_throughput_per_s": _ratio(workload.records_per_unit, _median(times)),
        "reference_readings_s": _spread_summary(clock.readings),
        "records_per_unit": workload.records_per_unit,
        "quality_units": int(units),
        "first_unit_digests": {"blocks": first_digests[0], "clusters": first_digests[1]}
        if first_digests else None,
    }
    return Result(end_to_end, per_layer, samples, attempted, failed, record)


# -- serve ------------------------------------------------------------------


class OpStream:
    """Seeded op mix: ~80% resolve_one, ~15% add, ~5% remove.

    A remove takes a record this stream added earlier; with none live it
    becomes an add. Adds copy a held-out record under a fresh id, keeping
    its entity, so later probes of that entity have a live true match.
    """

    def __init__(self, seed: int, held_out: list[Record]) -> None:
        self._rng = random.Random(input_seed("serve", seed, "ops"))
        self._held_out = held_out
        self._added: list[Record] = []
        self._next_id = 0

    def next(self) -> tuple[str, Record]:
        roll = self._rng.random()
        probe = self._rng.choice(self._held_out)
        if roll < 0.80:
            return "read", probe
        if roll < 0.95 or not self._added:
            self._next_id += 1
            record = Record(f"a{self._next_id:07d}", dict(probe.fields), entity_id=probe.entity_id)
            self._added.append(record)
            return "add", record
        return "remove", self._added.pop(self._rng.randrange(len(self._added)))


def _answer_key(answer) -> tuple:
    return (
        answer.record_id, answer.tier, answer.best_id,
        tuple((c.record_id, c.score, c.label) for c in answer.candidates),
    )


class ServeWorkload:
    """A durable SA-LSH voter resolver under a read/add/remove op mix."""

    name = "serve"
    generated = 24_000
    held_out_clean = 1_600

    def build(self, seed: int, state_dir: Path):
        """Generate the corpus and build the durable resolver.

        Held out are every duplicate row plus some clean rows; the index
        holds the remaining ~20,000 clean rows.
        """
        dataset = NCVoterLikeGenerator(
            num_records=self.generated, seed=input_seed(self.name, seed, "corpus"),
            exact_duplicate_fraction=0.0,
        ).generate()
        clean = [r for r in dataset if r.record_id.startswith("v")]
        random.Random(input_seed(self.name, seed, "split")).shuffle(clean)
        held_out = [r for r in dataset if r.record_id.startswith("d")]
        held_out += clean[: self.held_out_clean]
        corpus = clean[self.held_out_clean:]
        blocker = SALSHBlocker(
            ("first_name", "last_name"), q=2, k=9, l=15,
            semantic_function=VoterSemanticFunction(), seed=BLOCKER_SEED,
        )
        resolver = Resolver(blocker, corpus, matcher=voter_matcher(), state_dir=state_dir)
        # A warm-up read folds the lazy query maps before any timed op.
        resolver.resolve_one(held_out[0])
        return resolver, corpus, held_out


def _apply(resolver: Resolver, kind: str, record: Record):
    if kind == "read":
        answer = resolver.resolve_one(record)
        if answer.tier == "error":
            raise RuntimeError(f"resolve_one({record.record_id}) -> error: {answer.error}")
        return answer
    if kind == "add":
        resolver.add(record)
    else:
        resolver.remove(record.record_id)
    return None


def _percentile(values: list[float], q: int) -> float | None:
    """The q-th percentile, only where at least ten samples lie beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


def run_serve(workload: ServeWorkload, seed: int, seconds: float, traced: bool,
              import_s: float, out_dir: Path) -> Result:
    run_dir = out_dir / f"serve-state-{seed}-{time.time_ns()}"
    try:
        return _run_serve(workload, seed, seconds, traced, import_s, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


#: Answer slot of an op that raised.
FAILED = "failed"


class ServeStats:
    """Op timings of a serve run: plain latencies and traced self times."""

    def __init__(self) -> None:
        self.latencies = {"read": [], "write": []}
        self.op_self = {"read": [], "write": []}
        self.plain_wall = self.plain_cpu = self.traced_wall = self.covered = 0.0


def _run_ops(resolver, ops, first_op: int, tracer: Tracer | None, stats: ServeStats):
    """Apply ops in order; a failed op's answer is ``FAILED``."""
    answers = []
    cpu_start = time.process_time()
    for n, (kind, record) in enumerate(ops):
        side = "read" if kind == "read" else "write"
        if tracer is None:
            start = time.perf_counter()
            ok, answer = _attempt(_apply, resolver, kind, record)
            elapsed = time.perf_counter() - start
            stats.plain_wall += elapsed
            if ok:
                stats.latencies[side].append(elapsed)
        else:
            ok, value = _attempt(
                tracer.call, f"{kind}:{first_op + n}", _apply, resolver, kind, record
            )
            if ok:
                answer, wall, covered, self_times = value
                stats.traced_wall += wall
                stats.covered += covered
                stats.op_self[side].append(self_times)
        answers.append(answer if ok else FAILED)
    if tracer is None:
        stats.plain_cpu += time.process_time() - cpu_start
    return answers


def _run_serve(workload, seed, seconds, traced, import_s, run_dir: Path) -> Result:
    clock = HostClock()
    setups = {"ref": [], "cpu": [], "wall": []}
    live = None
    for rep in range(1 if traced else SETUP_REPEATS):
        if live is not None:
            live.close()
        (live, corpus, held_out), wall, cpu, ref = _timed(
            clock, workload.build, seed, run_dir / f"live{rep}"
        )
        setups["ref"].append(ref)
        setups["cpu"].append(cpu)
        setups["wall"].append(wall)
        gc.collect()
    # A traced run drives an untraced twin with the same op stream,
    # block by block, and requires equal answers.
    twin = workload.build(seed, run_dir / "twin")[0] if traced else None
    journal_file = journal_path(live.state_dir)
    journal_start = journal_file.stat().st_size

    live_ids: dict[str, set[str]] = {}
    for record in corpus:
        live_ids.setdefault(record.entity_id, set()).add(record.record_id)
    stream = OpStream(seed, held_out)
    tracer, stats, tally = Tracer(), ServeStats(), Counter()
    answers_digest = hashlib.sha256()
    attempted = failed = 0
    segment_rates, segment_ops, segment_cpu = [], 0, 0.0
    clock.read()
    loop_start = time.perf_counter()
    while attempted < QUALITY_OPS or time.perf_counter() - loop_start < seconds:
        ops = [stream.next() for _ in range(OPS_PER_BLOCK)]
        if traced:
            twin_first = (attempted // OPS_PER_BLOCK) % 2 == 1
            if twin_first:
                plain = _run_ops(twin, ops, attempted, None, stats)
            with wrapped(tracer, BOUNDARIES):
                answers = _run_ops(live, ops, attempted, tracer, stats)
            if not twin_first:
                plain = _run_ops(twin, ops, attempted, None, stats)
        else:
            cpu_before = stats.plain_cpu
            answers = plain = _run_ops(live, ops, attempted, None, stats)
            segment_ops += sum(1 for answer in answers if answer is not FAILED)
            segment_cpu += stats.plain_cpu - cpu_before
            if (attempted // OPS_PER_BLOCK + 1) % BLOCKS_PER_SEGMENT == 0:
                segment_rates.append(segment_ops / clock.measure(segment_cpu))
                segment_ops, segment_cpu = 0, 0.0
        for (kind, record), answer, other in zip(ops, answers, plain):
            attempted += 1
            if answer is FAILED or other is FAILED:
                failed += 1
                continue
            if kind == "read":
                key = _answer_key(answer)
                if traced and key != _answer_key(other):
                    raise checks.CheckFailed(
                        f"op {attempted}: traced and untraced answers differ"
                    )
                if attempted <= QUALITY_OPS:
                    answers_digest.update(repr(key).encode())
                    _score_read(record, answer, live_ids, tally)
                continue
            tally.update(writes=1)
            entity_ids = live_ids.setdefault(record.entity_id, set())
            if kind == "add":
                entity_ids.add(record.record_id)
            else:
                entity_ids.discard(record.record_id)
    loop_wall = time.perf_counter() - loop_start
    journal_bytes = journal_file.stat().st_size - journal_start

    # Every acknowledged write must survive a restart: reopen the state
    # and compare answers on a fixed probe sample.
    live.close()
    probes = random.Random(input_seed(workload.name, seed, "reopen")).sample(
        held_out, REOPEN_PROBES
    )
    recover_times, checkpoint_times = [], []
    opens = 2 if traced else 1
    for attempt in range(opens):
        start = time.perf_counter()
        reopened = Resolver.open(live.state_dir)
        recover_times.append(time.perf_counter() - start)
        try:
            for probe in probes:
                if _answer_key(reopened.resolve_one(probe)) != _answer_key(
                    live.resolve_one(probe)
                ):
                    raise checks.CheckFailed(
                        f"reopened resolver answers {probe.record_id} differently"
                    )
            # Saving last keeps every open a full journal replay.
            for _ in range(3 if traced and attempt == opens - 1 else 0):
                start = time.perf_counter()
                reopened.save()
                checkpoint_times.append(time.perf_counter() - start)
        finally:
            reopened.close()
    if traced:
        twin.close()
        tracer.write(run_dir.parent / f"trace-serve-seed{seed}.tsv.gz")

    reads = tally["reads"]
    end_to_end = {
        "setup_s": _setup_seconds(import_s, clock, setups["ref"]),
        "throughput_per_s": _median(segment_rates),
        "pc": _ratio(tally["tp"], tally["true"]),
        "pq": _ratio(tally["tp"], tally["candidates"]),
        "match_f1": _f1(tally["match_correct"], tally["match_answers"], tally["matchable"]),
        "ok_frac": _ratio(attempted - failed, attempted),
    }
    per_layer = {}
    if traced:
        for span, (side, metric) in SERVE_TIMES.items():
            ops_of_side = stats.op_self[side]
            per_layer[metric] = 1e3 * _ratio(
                sum(s.get(span, 0.0) for s in ops_of_side), len(ops_of_side)
            )
        per_layer.update({
            "store.journal_bytes_per_write": _ratio(journal_bytes, tally["writes"]),
            "core.candidates_per_read": _ratio(tally["scored"], reads),
            "er.useful_candidate_frac": _ratio(tally["useful"], tally["scored"]),
            "store.checkpoint_s": _median(checkpoint_times),
            "store.recover_s": _median(recover_times),
            "trace.coverage": _ratio(stats.covered, stats.traced_wall),
            "trace.overhead": _ratio(stats.traced_wall, stats.plain_wall) - 1.0,
        })
    latency = {}
    for side, values in stats.latencies.items():
        latency[f"{side}_samples"] = len(values)
        for q in (50, 99):
            value = _percentile(values, q)
            latency[f"{side}_p{q}_ms"] = None if value is None else 1e3 * value
    samples = {
        "setup_s": len(setups["ref"]),
        "throughput_per_s": len(segment_rates),
        "pc": int(tally["matchable"]), "pq": int(tally["matchable"]),
        "match_f1": int(reads),
        "ok_frac": attempted,
        "per_layer_times": sum(len(v) for v in stats.op_self.values()),
        "per_layer_counts": int(reads),
        "store.checkpoint_s": len(checkpoint_times),
        "store.recover_s": len(recover_times),
    }
    record = {
        "import_cpu_s": import_s,
        "setup_repeats_s": setups,
        "segment_ops_per_ref_s": segment_rates,
        "cpu_throughput_per_s": _ratio(attempted - failed, stats.plain_cpu),
        "wall_throughput_per_s": _ratio(attempted - failed, loop_wall),
        "reference_readings_s": _spread_summary(clock.readings),
        "corpus_records": len(corpus),
        "held_out_records": len(held_out),
        "quality_ops": min(attempted, QUALITY_OPS),
        "latency": latency,
        "answers_digest": answers_digest.hexdigest()[:16],
        "recover_s": recover_times,
    }
    return Result(end_to_end, per_layer, samples, attempted, failed, record)


def _score_read(probe: Record, answer, live_ids, tally: Counter) -> None:
    """Candidate PC/PQ and match-tier F1 of one read in the prefix."""
    true_ids = live_ids.get(probe.entity_id, set()) if probe.entity_id else set()
    candidates = [c.record_id for c in answer.candidates]
    tally.update(
        reads=1,
        scored=len(candidates),
        useful=sum(1 for c in answer.candidates if c.label != "non-match"),
        match_answers=answer.tier == "match",
    )
    if true_ids:
        tally.update(
            matchable=1,
            true=len(true_ids),
            candidates=len(candidates),
            tp=sum(1 for c in candidates if c in true_ids),
            match_correct=answer.tier == "match" and answer.best_id in true_ids,
        )


WORKLOADS = {"dedup": DedupWorkload, "link": LinkWorkload, "serve": ServeWorkload}


def run(name: str, seed: int, seconds: float, traced: bool, import_s: float,
        out_dir: Path) -> Result:
    workload = WORKLOADS[name]()
    runner = run_serve if name == "serve" else run_batch
    return runner(workload, seed, seconds, traced, import_s, out_dir)
