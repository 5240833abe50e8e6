"""Command-line interface: generate, block, evaluate, resolve, query.

Usage (after ``pip install -e .``)::

    python -m repro generate --kind cora --records 1879 --out cora.csv
    python -m repro block --input cora.csv --technique salsh \
        --attributes authors,title --domain cora --out pairs.csv
    python -m repro evaluate --input cora.csv --pairs pairs.csv
    python -m repro resolve --input cora.csv --pairs pairs.csv \
        --attributes authors,title
    python -m repro link --source a.csv --target b.csv \
        --technique lsh --attributes authors,title --out pairs.csv
    python -m repro query --input cora.csv --queries probes.csv \
        --technique lsh --attributes authors,title
    python -m repro serve-batch --input cora.csv --ops ops.csv \
        --technique lsh --attributes authors,title

``block`` supports the library's own blockers (lsh, salsh, mplsh,
forest) and every survey technique at its default grid setting.
``link`` is the clean-clean counterpart of ``block``: two datasets
(or one CSV with a ``dataset_id`` column) are blocked against each
other and only cross-dataset candidate pairs come out; ``--resolve``
switches to the linkage resolver mode, where the index holds the
target corpus and every source record is resolved as a probe.
``query`` and ``serve-batch`` run the online resolver service — a
blocking-first single-record query path over an incremental index —
and therefore accept only the four online-capable techniques.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from typing import Sequence

from repro.baselines import TECHNIQUE_ORDER, iter_parameter_grid
from repro.core import (
    LSHBlocker,
    LSHForestBlocker,
    MultiProbeLSHBlocker,
    SALSHBlocker,
)
from repro.datasets import CoraLikeGenerator, NCVoterLikeGenerator
from repro.er import (
    Resolver,
    SimilarityMatcher,
    evaluate_resolution,
    resolve,
)
from repro.errors import ReproError
from repro.evaluation import evaluate_blocks, evaluate_linkage, run_blocking
from repro.records import (
    LinkedCorpus,
    Record,
    read_csv,
    read_linked_csv,
    read_pairs_csv,
    write_csv,
    write_pairs_csv,
)
from repro.records.io import csv_rows
from repro.core.base import BlockingResult
from repro.semantic import (
    PatternSemanticFunction,
    VoterSemanticFunction,
    cora_patterns,
)
from repro.store import latest_checkpoint
from repro.store.journal import FSYNC_MODES
from repro.taxonomy.builders import bibliographic_tree
from repro.utils import faults

#: Built-in semantic domains for the salsh technique.
SEMANTIC_DOMAINS = ("cora", "voter")


def _semantic_function(domain: str):
    if domain == "cora":
        return PatternSemanticFunction(bibliographic_tree(), cora_patterns())
    if domain == "voter":
        return VoterSemanticFunction()
    raise ReproError(
        f"unknown semantic domain {domain!r}; known: {SEMANTIC_DOMAINS}"
    )


def _make_blocker(args) -> object:
    attributes = tuple(a.strip() for a in args.attributes.split(",") if a.strip())
    if not attributes:
        raise ReproError("--attributes must name at least one attribute")
    technique = args.technique.lower()
    if technique == "lsh":
        return LSHBlocker(
            attributes, q=args.q, k=args.k, l=args.l, seed=args.seed
        )
    if technique == "salsh":
        return SALSHBlocker(
            attributes, q=args.q, k=args.k, l=args.l, seed=args.seed,
            semantic_function=_semantic_function(args.domain),
            w=args.w if args.w else "all", mode=args.mode,
        )
    if technique == "mplsh":
        return MultiProbeLSHBlocker(
            attributes, q=args.q, k=args.k, l=args.l, seed=args.seed
        )
    if technique == "forest":
        return LSHForestBlocker(
            attributes, q=args.q, k=args.k, l=args.l, seed=args.seed
        )
    for name in TECHNIQUE_ORDER:
        if technique == name.lower():
            return next(iter(iter_parameter_grid(name, attributes)))
    raise ReproError(
        f"unknown technique {args.technique!r}; known: lsh, salsh, mplsh, "
        f"forest, {', '.join(t.lower() for t in TECHNIQUE_ORDER)}"
    )


def _resolver_from_args(args, dataset) -> Resolver:
    """A warm :class:`Resolver` over ``dataset`` per the CLI arguments."""
    blocker = _make_blocker(args)
    if getattr(blocker, "online", None) is None:
        raise ReproError(
            f"technique {args.technique!r} has no online index; "
            "query/serve-batch support: lsh, salsh, mplsh, forest"
        )
    matcher = SimilarityMatcher(
        {a: args.similarity for a in blocker.attributes},
        match_threshold=args.match_threshold,
        possible_threshold=args.possible_threshold,
    )
    return Resolver(
        blocker,
        dataset,
        matcher=matcher,
        state_dir=getattr(args, "state_dir", None),
        fsync=getattr(args, "fsync", "always"),
    )


#: Output columns of ``query`` and ``serve-batch``.
_RESULT_COLUMNS = ("query_id", "tier", "best_id", "best_score",
                   "num_candidates")


def _emit_results(resolved, out: str | None) -> None:
    """Write resolver outcomes as CSV to ``out`` (or stdout)."""
    sink = (
        open(out, "w", newline="", encoding="utf-8")
        if out
        else contextlib.nullcontext(sys.stdout)
    )
    with sink as handle:
        writer = csv.writer(handle)
        writer.writerow(_RESULT_COLUMNS)
        for entity in resolved:
            writer.writerow([
                entity.record_id, entity.tier, entity.best_id or "",
                f"{entity.best_score:.4f}", entity.num_candidates,
            ])


#: Operations a serve-batch ops CSV may contain.
_SERVE_OPS = ("add", "remove", "query")


def _read_ops_csv(path: str) -> list[tuple[str, Record]]:
    """Read a serve-batch operations CSV.

    Needs ``op`` and ``record_id`` columns; every other column becomes
    a record attribute (``remove`` rows only use the id). Malformed
    rows raise a :class:`ReproError` naming the offending source line
    (the CLI turns that into exit code 2, not a traceback).
    """
    operations: list[tuple[str, Record]] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"op", "record_id"} <= set(
            reader.fieldnames
        ):
            raise ReproError(
                f"ops CSV {path} needs 'op' and 'record_id' columns; "
                f"found {reader.fieldnames}"
            )
        for row in csv_rows(reader, f"ops CSV {path}", ReproError):
            op = (row.get("op") or "").strip().lower()
            if op not in _SERVE_OPS:
                raise ReproError(
                    f"ops CSV {path} line {reader.line_num}: unknown op "
                    f"{op!r}; known: {', '.join(_SERVE_OPS)}"
                )
            record_id = (row.get("record_id") or "").strip()
            if not record_id:
                raise ReproError(
                    f"ops CSV {path} line {reader.line_num}: row has no "
                    "record_id value"
                )
            fields = {
                key: value or ""
                for key, value in row.items()
                if key not in ("op", "record_id")
            }
            operations.append((op, Record(record_id, fields)))
    return operations


def cmd_generate(args) -> int:
    if args.kind == "cora":
        dataset = CoraLikeGenerator(
            num_records=args.records,
            num_entities=max(2, args.records // 10),
            seed=args.seed,
        ).generate()
    else:
        dataset = NCVoterLikeGenerator(
            num_records=args.records, seed=args.seed
        ).generate()
    write_csv(dataset, args.out)
    print(f"wrote {len(dataset)} records ({args.kind}) to {args.out}")
    return 0


def cmd_block(args) -> int:
    dataset = read_csv(args.input)
    outcome = run_blocking(_make_blocker(args), dataset)
    write_pairs_csv(outcome.result.distinct_pairs, args.out)
    print(
        f"{outcome.description}: {outcome.metrics.num_distinct_pairs} "
        f"candidate pairs from {len(dataset)} records "
        f"in {outcome.seconds:.2f}s -> {args.out}"
    )
    if dataset.num_true_matches:
        print(f"quality vs ground truth: {outcome.metrics}")
    return 0


def cmd_evaluate(args) -> int:
    dataset = read_csv(args.input)
    if not dataset.num_true_matches:
        print("error: dataset has no ground-truth entity column", file=sys.stderr)
        return 2
    pairs = read_pairs_csv(args.pairs)
    result = BlockingResult("pairs-file", tuple(sorted(pairs)))
    print(evaluate_blocks(result, dataset))
    return 0


def cmd_resolve(args) -> int:
    dataset = read_csv(args.input)
    pairs = read_pairs_csv(args.pairs)
    attributes = tuple(a.strip() for a in args.attributes.split(",") if a.strip())
    matcher = SimilarityMatcher(
        {attribute: args.similarity for attribute in attributes},
        match_threshold=args.threshold,
    )
    matched = matcher.matches(dataset, pairs)
    clusters = resolve(dataset, matched)
    multi = [c for c in clusters if len(c) > 1]
    print(f"{len(matched)} matched pairs -> {len(multi)} multi-record entities")
    if dataset.num_true_matches:
        print(evaluate_resolution(clusters, dataset))
    return 0


def _linked_from_args(args) -> LinkedCorpus:
    """The :class:`LinkedCorpus` named by ``link``'s input arguments."""
    if args.input:
        if args.source or args.target:
            raise ReproError(
                "give either --input (one CSV with a dataset_id column) "
                "or --source/--target (one CSV per side), not both"
            )
        return read_linked_csv(
            args.input, source=args.source_name, target=args.target_name
        )
    if not (args.source and args.target):
        raise ReproError(
            "link needs --input or both --source and --target"
        )
    return LinkedCorpus(read_csv(args.source), read_csv(args.target))


def cmd_link(args) -> int:
    linked = _linked_from_args(args)
    blocker = _make_blocker(args)
    if args.resolve:
        if getattr(blocker, "online", None) is None:
            raise ReproError(
                f"technique {args.technique!r} has no online index; "
                "link --resolve support: lsh, salsh, mplsh, forest"
            )
        matcher = SimilarityMatcher(
            {a: args.similarity for a in blocker.attributes},
            match_threshold=args.match_threshold,
            possible_threshold=args.possible_threshold,
        )
        resolver = Resolver.for_linkage(blocker, linked, matcher=matcher)
        resolved = resolver.link()
        _emit_results(resolved, args.out)
        if args.out:
            tiers = {t: 0 for t in ("match", "possible", "new", "error")}
            for entity in resolved:
                tiers[entity.tier] += 1
            print(
                f"linked {len(linked.source)} source records against "
                f"{len(linked.target)} target records "
                f"({tiers['match']} match / {tiers['possible']} "
                f"possible / {tiers['new']} new / {tiers['error']} "
                f"error) -> {args.out}"
            )
        return 0
    result = blocker.block_pair(linked)
    pairs = sorted(result.cross_pairs)
    if args.out:
        write_pairs_csv(pairs, args.out)
        destination = f" -> {args.out}"
    else:
        destination = ""
    print(
        f"{result.blocker_name}: {len(pairs)} cross-dataset candidate "
        f"pairs from |S|={len(linked.source)} x |T|={len(linked.target)} "
        f"in {result.seconds:.2f}s{destination}"
    )
    if linked.num_true_matches:
        print(f"quality vs ground truth: {evaluate_linkage(result)}")
    return 0


def cmd_query(args) -> int:
    corpus = read_csv(args.input)
    queries = read_csv(args.queries)
    resolver = _resolver_from_args(args, corpus)
    resolved = resolver.resolve_many(list(queries))
    _emit_results(resolved, args.out)
    if args.out:
        tiers = {tier: 0 for tier in ("match", "possible", "new", "error")}
        for entity in resolved:
            tiers[entity.tier] += 1
        print(
            f"resolved {len(resolved)} queries against {len(corpus)} "
            f"records ({tiers['match']} match / {tiers['possible']} "
            f"possible / {tiers['new']} new / {tiers['error']} error) "
            f"-> {args.out}"
        )
    return 0


def cmd_serve_batch(args) -> int:
    operations = _read_ops_csv(args.ops)
    state_dir = getattr(args, "state_dir", None)
    resume = state_dir is not None and latest_checkpoint(state_dir) is not None
    if resume:
        # The directory already holds resolver state: recover it
        # (checkpoint + journal tail) instead of re-seeding.
        resolver = Resolver.open(
            state_dir, fsync=getattr(args, "fsync", "always")
        )
    else:
        corpus = read_csv(args.input)
        resolver = _resolver_from_args(args, corpus)
    resolved = []
    for op, record in operations:
        if op == "add":
            resolver.add(record)
        elif op == "remove":
            try:
                resolver.remove(record.record_id)
            except KeyError:
                raise ReproError(
                    f"cannot remove unknown record {record.record_id!r}"
                ) from None
        else:
            resolved.append(resolver.resolve_one(record))
    if state_dir is not None:
        resolver.save()  # compact: fold the journal into a checkpoint
    resolver.close()
    _emit_results(resolved, args.out)
    if args.out:
        source = f"state dir {state_dir}" if resume else args.input
        print(
            f"applied {len(operations)} operations "
            f"({len(resolved)} queries) against {source} -> {args.out}"
        )
    return 0


def cmd_recover(args) -> int:
    resolver = Resolver.open(args.state_dir, fsync=args.fsync)
    tail = resolver.last_seq
    print(
        f"recovered {len(resolver)} records from {args.state_dir} "
        f"(journal seq {tail})"
    )
    if args.queries:
        probes = read_csv(args.queries)
        resolved = resolver.resolve_many(list(probes))
        _emit_results(resolved, args.out)
    if args.compact:
        resolver.save()
        print(f"compacted journal into a fresh checkpoint (seq {tail})")
    resolver.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Semantic-aware LSH blocking toolkit"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("--kind", choices=("cora", "ncvoter"), required=True)
    generate.add_argument("--records", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=cmd_generate)

    def add_blocker_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--technique", default="salsh")
        sub.add_argument("--attributes", required=True,
                         help="comma-separated blocking attributes")
        sub.add_argument("--domain", choices=SEMANTIC_DOMAINS, default="cora",
                         help="semantic domain for salsh")
        sub.add_argument("--q", type=int, default=3)
        sub.add_argument("--k", type=int, default=4)
        sub.add_argument("--l", type=int, default=20)
        sub.add_argument("--w", type=int, default=0,
                         help="w-way size for salsh (0 = all bits)")
        sub.add_argument("--mode", choices=("and", "or"), default="or")
        sub.add_argument("--seed", type=int, default=0)

    def add_matcher_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--similarity", default="jaccard_q2",
                         help="similarity measure scoring the blocking "
                              "candidates of each query")
        sub.add_argument("--match-threshold", type=float, default=0.85)
        sub.add_argument("--possible-threshold", type=float, default=0.65)

    block = commands.add_parser("block", help="block a CSV dataset")
    block.add_argument("--input", required=True)
    add_blocker_arguments(block)
    block.add_argument("--out", required=True)
    block.set_defaults(func=cmd_block)

    evaluate = commands.add_parser("evaluate", help="score a pairs file")
    evaluate.add_argument("--input", required=True)
    evaluate.add_argument("--pairs", required=True)
    evaluate.set_defaults(func=cmd_evaluate)

    resolve_cmd = commands.add_parser(
        "resolve", help="match + cluster candidate pairs into entities"
    )
    resolve_cmd.add_argument("--input", required=True)
    resolve_cmd.add_argument("--pairs", required=True)
    resolve_cmd.add_argument("--attributes", required=True)
    resolve_cmd.add_argument("--similarity", default="jaro_winkler")
    resolve_cmd.add_argument("--threshold", type=float, default=0.85)
    resolve_cmd.set_defaults(func=cmd_resolve)

    link = commands.add_parser(
        "link",
        help="cross-dataset record linkage: block a source dataset "
             "against a target dataset (clean-clean ER) — only pairs "
             "spanning the two sides are emitted; --resolve instead "
             "resolves every source record against the target index",
    )
    link.add_argument("--source", default=None,
                      help="source-side CSV (with --target)")
    link.add_argument("--target", default=None,
                      help="target-side CSV (with --source)")
    link.add_argument("--input", default=None,
                      help="single CSV carrying both sides, separated by "
                           "a dataset_id column (alternative to "
                           "--source/--target)")
    link.add_argument("--source-name", default=None,
                      help="dataset_id value to pin as the source side of "
                           "--input (default: first seen)")
    link.add_argument("--target-name", default=None,
                      help="dataset_id value to pin as the target side of "
                           "--input")
    add_blocker_arguments(link)
    add_matcher_arguments(link)
    link.add_argument("--resolve", action="store_true",
                      help="index the target corpus and resolve each "
                           "source record as a probe (linkage resolver "
                           "mode), emitting one result row per source "
                           "record instead of a pairs CSV")
    link.add_argument("--out", default=None,
                      help="pairs CSV (or, with --resolve, result CSV; "
                           "default: summary only, or stdout with "
                           "--resolve)")
    link.set_defaults(func=cmd_link)

    query = commands.add_parser(
        "query",
        help="resolve probe records against a corpus via the online "
             "resolver (single-record query path, no corpus rebuild)",
    )
    query.add_argument("--input", required=True,
                       help="corpus CSV the resolver indexes")
    query.add_argument("--queries", required=True,
                       help="CSV of probe records to resolve")
    add_blocker_arguments(query)
    add_matcher_arguments(query)
    query.add_argument("--out", default=None,
                       help="result CSV (default: stdout)")
    query.set_defaults(func=cmd_query)

    serve = commands.add_parser(
        "serve-batch",
        help="replay an add/remove/query operations CSV against the "
             "online resolver, emitting one result row per query op",
    )
    serve.add_argument("--input", required=True,
                       help="corpus CSV seeding the resolver (ignored "
                            "when --state-dir already holds a checkpoint "
                            "— the saved state is recovered instead)")
    serve.add_argument("--ops", required=True,
                       help="operations CSV with op + record_id columns")
    add_blocker_arguments(serve)
    add_matcher_arguments(serve)
    serve.add_argument("--state-dir", default=None,
                       help="durability root: checkpoint + write-ahead "
                            "journal; every add/remove is journaled "
                            "before it is applied, so a crash — even "
                            "kill -9 — loses no acknowledged operation")
    serve.add_argument("--fsync", choices=FSYNC_MODES, default="always",
                       help="journal fsync discipline (default: always)")
    serve.add_argument("--out", default=None,
                       help="result CSV (default: stdout)")
    serve.set_defaults(func=cmd_serve_batch)

    recover = commands.add_parser(
        "recover",
        help="recover a resolver from a --state-dir after a crash: "
             "load the latest checkpoint, replay the journal tail, "
             "report what survived",
    )
    recover.add_argument("--state-dir", required=True,
                         help="durability root written by serve-batch "
                              "--state-dir (or Resolver.save)")
    recover.add_argument("--queries", default=None,
                         help="optional CSV of probe records to resolve "
                              "against the recovered corpus")
    recover.add_argument("--out", default=None,
                         help="result CSV for --queries (default: stdout)")
    recover.add_argument("--compact", action="store_true",
                         help="write a fresh checkpoint after recovery, "
                              "folding the journal tail in")
    recover.add_argument("--fsync", choices=FSYNC_MODES, default="always")
    recover.set_defaults(func=cmd_recover)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    faults.arm_from_env()  # deterministic fault/crash injection hook
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
