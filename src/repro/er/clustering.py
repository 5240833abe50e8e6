"""Entity clustering from matched pairs (transitive closure).

The classic post-matching step: matched pairs induce a graph whose
connected components are the resolved entities (Hernández & Stolfo's
merge/purge closure).

Matched pairs are encoded as ``uint64`` keys over the dataset's int32
id codec (:mod:`repro.records.pairs`) and components are found by
vectorized min-label propagation with pointer jumping over the decoded
index arrays — no per-edge Python work. The clusters equal those of the
string-keyed union-find in :mod:`repro.reference.er`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.records.dataset import Dataset
from repro.records.ground_truth import Pair
from repro.records.pairs import decode_pair_keys, encode_pair_keys


def component_labels(num_records: int, pair_keys: np.ndarray) -> np.ndarray:
    """Connected-component labels over encoded pair keys.

    ``pair_keys`` are ``uint64`` keys (:func:`~repro.records.pairs.
    encode_pair_keys`) over indices in ``range(num_records)``. Returns
    an int64 array mapping every index to its component's smallest
    member index — the array union-find of the pair engine: each round
    propagates the minimum label across all edges at once
    (``np.minimum.at``) and then compresses label chains by pointer
    jumping (``labels = labels[labels]``), so convergence needs a few
    whole-array passes instead of one Python iteration per edge.
    """
    labels = np.arange(num_records, dtype=np.int64)
    if pair_keys.size == 0:
        return labels
    lo, hi = decode_pair_keys(np.asarray(pair_keys, dtype=np.uint64))
    if lo.size and (int(max(lo.max(), hi.max())) >= num_records):
        raise ConfigurationError(
            "pair keys reference indices outside range(num_records)"
        )
    while True:
        before = labels.copy()
        minimum = np.minimum(labels[lo], labels[hi])
        np.minimum.at(labels, lo, minimum)
        np.minimum.at(labels, hi, minimum)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, before):
            return labels


def connected_components_arrays(
    record_ids: Sequence[str], pair_keys: np.ndarray
) -> list[list[str]]:
    """Entity clusters over encoded pair keys — the array engine.

    ``record_ids`` positions define the index space of ``pair_keys``.
    Every record lands in exactly one cluster, members and clusters
    sorted.
    """
    record_ids = list(record_ids)
    labels = component_labels(len(record_ids), pair_keys)
    clusters: dict[int, list[str]] = {}
    for index, label in enumerate(labels.tolist()):
        clusters.setdefault(label, []).append(record_ids[index])
    return sorted(sorted(members) for members in clusters.values())


def resolve(dataset: Dataset, matched_pairs: Iterable[Pair]) -> list[list[str]]:
    """Cluster a dataset's records given matched pairs.

    The pairs are encoded through the dataset's id codec and unioned
    over int32 indices, so they must reference dataset records.
    """
    pairs = list(matched_pairs)
    if not pairs:
        return connected_components_arrays(
            dataset.record_ids, np.empty(0, dtype=np.uint64)
        )
    flat = dataset.encode_ids([rid for pair in pairs for rid in pair])
    keys = encode_pair_keys(flat[0::2], flat[1::2])
    return connected_components_arrays(dataset.record_ids, keys)
