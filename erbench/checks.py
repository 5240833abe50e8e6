"""Output checks and digests.

Every check raises :class:`CheckFailed` naming what is wrong; the
runner turns that into ``"correct": false`` and a non-zero exit. The
PC/PQ recomputation deliberately uses plain Python sets so that it
shares no code with the library's array engine it verifies.
"""

from __future__ import annotations

import hashlib
from itertools import combinations


class CheckFailed(Exception):
    """A workload produced a wrong output."""


def digest(rows) -> str:
    """Order-sensitive SHA-256 of an iterable of string tuples."""
    h = hashlib.sha256()
    for row in rows:
        h.update("\t".join(map(str, row)).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def check_blocks(blocks, corpus_ids: set[str]) -> None:
    """Every member is a corpus id and no block has fewer than 2."""
    if blocks and min(map(len, blocks)) < 2:
        small = next(b for b in blocks if len(b) < 2)
        raise CheckFailed(f"block {small!r} has fewer than 2 members")
    unknown = set().union(*blocks) - corpus_ids if blocks else set()
    if unknown:
        raise CheckFailed(f"blocks hold non-corpus ids {sorted(unknown)[:5]}")


def check_partition(clusters, corpus_ids: set[str]) -> None:
    """The clusters cover every corpus id exactly once."""
    flat = [rid for cluster in clusters for rid in cluster]
    if len(flat) != len(corpus_ids) or set(flat) != corpus_ids:
        raise CheckFailed(
            f"clusters hold {len(flat)} ids ({len(set(flat))} distinct) "
            f"for a corpus of {len(corpus_ids)}"
        )


def check_cross_pairs(pairs, source_ids, target_ids) -> None:
    """Every linkage candidate pairs a source record with a target one."""
    for s, t in pairs:
        if s not in source_ids or t not in target_ids:
            raise CheckFailed(f"linkage candidate {(s, t)!r} is not source x target")


def _truth_by_entity(records) -> dict[str, list[str]]:
    by_entity: dict[str, list[str]] = {}
    for record in records:
        if record.entity_id is not None:
            by_entity.setdefault(record.entity_id, []).append(record.record_id)
    return by_entity


def check_dedup_quality(blocks, records, metrics) -> None:
    """PC and PQ from plain sets equal ``evaluate_blocks``."""
    truth = {
        pair
        for members in _truth_by_entity(records).values()
        for pair in combinations(sorted(members), 2)
    }
    candidates = {
        pair for block in blocks for pair in combinations(sorted(set(block)), 2)
    }
    hits = len(candidates & truth)
    _compare(metrics, hits / len(truth), hits / len(candidates))


def check_link_quality(blocks, linked, metrics) -> None:
    """Cross-side PC and PQ from plain sets equal ``evaluate_linkage``."""
    sources = set(linked.source.record_ids)
    candidates = set()
    for block in blocks:
        members = set(block)
        candidates.update(
            (s, t) for s in members & sources for t in members - sources
        )
    targets = _truth_by_entity(linked.target)
    truth = {
        (s.record_id, t)
        for s in linked.source
        if s.entity_id is not None
        for t in targets.get(s.entity_id, ())
    }
    hits = len(candidates & truth)
    _compare(metrics, hits / len(truth), hits / len(candidates))


def _compare(metrics, pc: float, pq: float) -> None:
    if (metrics.pc, metrics.pq) != (pc, pq):
        raise CheckFailed(
            f"library PC/PQ {metrics.pc!r}/{metrics.pq!r} != set-based "
            f"{pc!r}/{pq!r}"
        )


def cluster_pair_counts(clusters, records) -> tuple[int, int, int]:
    """(true positives, predicted pairs, true pairs) of a clustering."""
    entity_of = {r.record_id: r.entity_id for r in records}
    predicted = hits = 0
    for cluster in clusters:
        size = len(cluster)
        predicted += size * (size - 1) // 2
        per_entity: dict[str, int] = {}
        for rid in cluster:
            entity = entity_of[rid]
            if entity is not None:
                per_entity[entity] = per_entity.get(entity, 0) + 1
        hits += sum(n * (n - 1) // 2 for n in per_entity.values())
    true_pairs = sum(
        len(m) * (len(m) - 1) // 2 for m in _truth_by_entity(records).values()
    )
    return hits, predicted, true_pairs
