"""Integer pair keys and vectorized pair enumeration.

The candidate-pair engine (DESIGN.md, "Candidate-pair engine") stores an
unordered record pair as one ``uint64`` key over contiguous record
indices::

    key = (min(i, j) << 32) | max(i, j)

Keys are injective for any corpus below 2^32 records, totally ordered,
and intersect/dedup with plain ``np.unique`` / ``np.intersect1d``. When
the index codec enumerates ids in lexicographic order (the *local*
vocabulary of :class:`~repro.core.base.BlockingResult`), numeric key
order equals the lexicographic order of the decoded ``(id1, id2)``
tuples, so sorted key arrays decode directly into the canonical
:func:`~repro.records.ground_truth.sorted_pair` form.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.records.ground_truth import Pair

#: Bits reserved for each index half of a pair key (max 2**32 records).
PAIR_SHIFT = np.uint64(32)
_LOW_MASK = np.uint64(0xFFFFFFFF)


def encode_pair_keys(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``uint64`` keys of unordered index pairs (canonical min/max form)."""
    lo = np.minimum(left, right).astype(np.uint64, copy=False)
    hi = np.maximum(left, right).astype(np.uint64, copy=False)
    return (lo << PAIR_SHIFT) | hi


def decode_pair_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` index arrays of encoded pair keys."""
    keys = np.asarray(keys, dtype=np.uint64)
    lo = (keys >> PAIR_SHIFT).astype(np.int64)
    hi = (keys & _LOW_MASK).astype(np.int64)
    return lo, hi


def pairs_from_keys(keys: np.ndarray, ids: Sequence[str]) -> list[Pair]:
    """Decode keys against an id vocabulary, preserving key order.

    The decoded tuples are ``(ids[lo], ids[hi])``; with a
    lexicographically sorted vocabulary that is already the canonical
    ``sorted_pair`` orientation. Callers decoding against a
    dataset-ordered codec must canonicalise the tuples themselves.
    """
    lo, hi = decode_pair_keys(keys)
    return [(ids[a], ids[b]) for a, b in zip(lo.tolist(), hi.tolist())]


def enumerate_csr_pairs(
    offsets: np.ndarray,
    indices: np.ndarray,
    *,
    with_group_ids: bool = False,
):
    """All within-group index pairs of a CSR block layout.

    Returns ``(left, right)`` arrays — plus the group id of each emitted
    pair when ``with_group_ids`` — covering every unordered pair of
    positions inside each group (the multiset Γm of the paper's §6,
    minus self-pairs, which arise only when a group repeats an index).

    Groups are expanded one *size class* at a time: all groups of equal
    size form one ``(m, size)`` matrix whose upper-triangle columns are
    gathered in bulk, so the expansion is pure numpy with one Python
    iteration per distinct group size. Emission order is therefore
    grouped by size class, not by group id — callers needing per-key
    group order must sort (see ``build_array_graph``).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    lefts: list[np.ndarray] = []
    rights: list[np.ndarray] = []
    groups: list[np.ndarray] = []
    for size in np.unique(sizes).tolist():
        if size < 2:
            continue
        members = np.flatnonzero(sizes == size)
        starts = offsets[members]
        matrix = indices[starts[:, None] + np.arange(size)]
        upper_i, upper_j = np.triu_indices(size, k=1)
        lefts.append(matrix[:, upper_i].ravel())
        rights.append(matrix[:, upper_j].ravel())
        if with_group_ids:
            groups.append(np.repeat(members, upper_i.size))
    if not lefts:
        empty = np.empty(0, dtype=np.int64)
        if with_group_ids:
            return empty, empty.copy(), empty.copy()
        return empty, empty.copy()
    left = np.concatenate(lefts)
    right = np.concatenate(rights)
    group_ids = np.concatenate(groups) if with_group_ids else None
    keep = left != right
    if not keep.all():
        left, right = left[keep], right[keep]
        if group_ids is not None:
            group_ids = group_ids[keep]
    if group_ids is not None:
        return left, right, group_ids
    return left, right


def encode_bipartite_keys(
    source: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """``uint64`` keys of cross-dataset pairs (source in the high word).

    Unlike :func:`encode_pair_keys` there is no min/max canonicalisation:
    the two sides of a :class:`~repro.records.dataset.LinkedCorpus` are
    disjoint id spaces, so ``(source_idx, target_idx)`` is already the
    canonical orientation and the codec stays injective over
    |S|, |T| < 2^32.
    """
    src = np.asarray(source).astype(np.uint64, copy=False)
    tgt = np.asarray(target).astype(np.uint64, copy=False)
    return (src << PAIR_SHIFT) | tgt


def unique_bipartite_keys(
    source: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Sorted distinct bipartite keys of the given cross pairs."""
    if np.asarray(source).size == 0:
        return np.empty(0, dtype=np.uint64)
    return sorted_unique_keys(encode_bipartite_keys(source, target))


def csr_source_counts(
    offsets: np.ndarray, indices: np.ndarray, source_mask: np.ndarray
) -> np.ndarray:
    """Source members per group of a CSR block layout.

    ``source_mask[i]`` says whether index ``i`` is a source record; a
    group of size ``s`` with ``n`` source members holds ``n * (s - n)``
    cross pairs, duplicates counted.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    num_groups = offsets.size - 1
    group_of = np.repeat(np.arange(num_groups), np.diff(offsets))
    is_source = np.asarray(source_mask, dtype=bool)[indices]
    return np.bincount(group_of[is_source], minlength=num_groups)


def enumerate_csr_cross_pairs(
    offsets: np.ndarray,
    indices: np.ndarray,
    source_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """All cross-side index pairs of a CSR block layout.

    ``source_mask[i]`` says whether local index ``i`` belongs to the
    source side; the returned ``(source, target)`` arrays cover every
    (source member × target member) pair inside each group and *never*
    a within-side pair — the clean-clean candidate set Γ over |S|×|T|.

    Like :func:`enumerate_csr_pairs` the expansion is one numpy
    cartesian product per distinct ``(n_source, n_target)`` shape class,
    with the group members partitioned sources-first by a stable sort so
    gathered rows stay aligned.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    indices = np.asarray(indices)
    source_mask = np.asarray(source_mask, dtype=bool)
    num_groups = offsets.size - 1
    if num_groups <= 0 or indices.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    sizes = np.diff(offsets)
    group_of = np.repeat(np.arange(num_groups), sizes)
    is_source = source_mask[indices]
    # Stable partition: within each group, source members first. The
    # secondary key is position, so dataset order survives inside each
    # side (emission order is deterministic either way — the pair *set*
    # is what callers consume).
    order = np.lexsort((~is_source, group_of))
    part_indices = indices[order]
    n_src = csr_source_counts(offsets, indices, source_mask)
    n_tgt = sizes - n_src
    shapes = n_src * (np.int64(indices.size) + 1) + n_tgt
    sources: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for shape in np.unique(shapes).tolist():
        members = np.flatnonzero(shapes == shape)
        s = int(n_src[members[0]])
        t = int(n_tgt[members[0]])
        if s == 0 or t == 0:
            continue
        starts = offsets[members]
        src_rows = part_indices[starts[:, None] + np.arange(s)]
        tgt_rows = part_indices[starts[:, None] + s + np.arange(t)]
        sources.append(
            np.broadcast_to(src_rows[:, :, None], (members.size, s, t)).ravel()
        )
        targets.append(
            np.broadcast_to(tgt_rows[:, None, :], (members.size, s, t)).ravel()
        )
    if not sources:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return (
        np.concatenate(sources).astype(np.int64, copy=False),
        np.concatenate(targets).astype(np.int64, copy=False),
    )


def sorted_unique_keys(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct copy of a key array via sort + run mask.

    Equivalent to ``np.unique(keys)`` but routed through one sort:
    numpy >= 2.x sends plain integer ``unique`` calls through a hash
    table that is far slower than sorting at candidate-pair sizes
    (~25x on half-million-key arrays).
    """
    if keys.size == 0:
        return keys.astype(np.uint64, copy=False)
    ordered = np.sort(keys)
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def unique_pair_keys(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Sorted distinct keys of the given index pairs (Γ from Γm)."""
    if np.asarray(left).size == 0:
        return np.empty(0, dtype=np.uint64)
    return sorted_unique_keys(encode_pair_keys(left, right))
