"""Splitting minhash signatures into bands (hash tables), and numbering
band keys exactly for bucket grouping."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: Multiplier of the label-folding hash (the 64-bit golden ratio, as in
#: splitmix64) — fixed so folds are deterministic across runs and hosts.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def split_bands(signature: np.ndarray, k: int, l: int) -> list[tuple[int, ...]]:
    """Split a length-(k*l) signature into ``l`` tuples of ``k`` values.

    Each tuple is the key of the record in one hash table; records whose
    keys agree in *any* table land in a common block.
    """
    if signature.shape[0] != k * l:
        raise ConfigurationError(
            f"signature length {signature.shape[0]} != k*l = {k * l}"
        )
    return [tuple(int(v) for v in signature[band * k : (band + 1) * k]) for band in range(l)]


def split_bands_matrix(signatures: np.ndarray, k: int, l: int) -> np.ndarray:
    """All band keys of all records in one pass — the batch form.

    ``signatures`` is the ``(n, k * l)`` uint64 signature matrix of a
    corpus (row order = record order). Returns an ``(n, l)`` array of
    opaque band keys: each key is the little-endian byte view of the
    contiguous k-value signature slice (dtype ``S{8k}``), so two keys
    compare equal exactly when the corresponding k-tuples from
    :func:`split_bands` are equal. The fixed-width bytes keys are
    hashable and groupable (:func:`dense_band_labels`) without
    materialising ``n * l`` Python tuples.

    Note numpy's S dtype truncates trailing NUL bytes when a scalar is
    *read*; since every key starts from exactly ``8 * k`` bytes, the
    truncation is injective and equality/grouping semantics are
    unaffected. Re-pad with ``key.ljust(8 * k, b"\\0")`` to recover the
    raw uint64 tuple.
    """
    if signatures.ndim != 2 or signatures.shape[1] != k * l:
        raise ConfigurationError(
            f"signature matrix of shape {signatures.shape} incompatible "
            f"with k*l = {k * l}"
        )
    contiguous = np.ascontiguousarray(signatures, dtype=np.uint64)
    return contiguous.reshape(-1).view(f"S{8 * k}").reshape(-1, l)


def record_band_keys(signature: np.ndarray, k: int, l: int) -> list[bytes]:
    """One record's band keys in the batch key convention.

    The single-record counterpart of :func:`split_bands_matrix`:
    returns ``l`` Python ``bytes`` keys that compare equal to the
    matrix keys of the same signature (numpy's trailing-NUL truncation
    applies to both sides, so equality is preserved). This is what the
    online query path uses to probe an index that was bulk-filled.
    """
    return split_bands_matrix(
        np.asarray(signature, dtype=np.uint64).reshape(1, -1), k, l
    )[0].tolist()


def fold_labels(labels: np.ndarray) -> np.ndarray:
    """Deterministic uint64 fold of band keys.

    Accepts the two key dtypes :meth:`~repro.lsh.index.BandedLSHIndex.
    add_many` takes: fixed-width byte keys (``S{8k}``, folded word-wise)
    and 64-bit integer keys (reinterpreted as uint64). Equal keys always
    fold equal; distinct byte keys may collide, so a fold orders keys
    but never groups them by itself (:func:`dense_band_labels` verifies
    the words).
    """
    if labels.dtype.kind == "S":
        itemsize = labels.dtype.itemsize
        if itemsize % 8 != 0:
            raise ConfigurationError(
                f"byte labels must be a multiple of 8 wide, got {itemsize}"
            )
        words = (
            np.ascontiguousarray(labels)
            .view(np.uint64)
            .reshape(len(labels), itemsize // 8)
        )
        folded = np.zeros(len(labels), dtype=np.uint64)
        for column in range(words.shape[1]):
            folded *= _GOLDEN
            folded += words[:, column]
    else:
        folded = labels.astype(np.uint64)
    return folded


def dense_band_labels(keys: np.ndarray) -> np.ndarray:
    """Exact int64 group numbers of fixed-width band keys.

    Equal keys get equal numbers and distinct keys distinct ones, in
    ``range(#distinct keys)``. The keys are grouped by sorting their
    uint64 :func:`fold_labels` rather than the ``S{8k}`` bytes; every
    key is then checked word for word against its predecessor in its
    fold run, and a fold collision between distinct keys falls back to
    ``np.unique(keys, return_inverse=True)``. The numbers follow fold
    order, not key order: bucket grouping depends only on which entries
    are equal, so any exact numbering yields the same blocks.
    """
    n = keys.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    keys = np.ascontiguousarray(keys)
    folded = fold_labels(keys)
    order = np.argsort(folded)
    folded = folded[order]
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(folded[1:], folded[:-1], out=run_start[1:])
    words = keys.view(np.uint64).reshape(n, -1)[order]
    same = (words[1:] == words[:-1]).all(axis=1)
    if not (same | run_start[1:]).all():
        _, inverse = np.unique(keys, return_inverse=True)
        return inverse.reshape(-1).astype(np.int64, copy=False)
    labels = np.empty(n, dtype=np.int64)
    labels[order] = np.cumsum(run_start) - 1
    return labels
