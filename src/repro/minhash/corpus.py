"""Corpus-level shingle layout for the batch signature engine.

A :class:`ShingledCorpus` is the output of one pass of
:meth:`repro.minhash.shingling.Shingler.shingle_corpus` over a dataset:
the shingle *vocabulary* is interned (each distinct q-gram hashed
exactly once), each distinct attribute value of the slab is tokenised
once into a CSR of vocabulary indices, and every record is a row of an
``(n, A)`` code matrix pointing at its values. A record's shingle set
is the union of its values' q-grams, so the batch kernel
(:meth:`repro.minhash.minhash.MinHasher.signature_matrix`) hashes each
distinct value once and takes a record's signature as the element-wise
minimum of its value rows. The record-level CSR (``indptr`` and
``token_vocab``) is derived on first read for the readers that need
shingle sets as such. See DESIGN.md, "Corpus layout".

For streaming ingestion, a :class:`ShingleVocabulary` carries the
interned vocabulary *across* shingling calls: successive record slabs
extend one growing vocabulary instead of re-interning (and
re-hashing) the grams every slab shares with its predecessors.
Signatures themselves are a pure function of the hashed gram multiset
— they would be byte-identical even with a private vocabulary per
slab — so the shared vocabulary is a throughput optimisation plus a
single token id space for token-level work, not a correctness
requirement (see DESIGN.md, "Streaming runtime").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.cache import LRUCache
from repro.utils.hashing import MERSENNE_PRIME_61, stable_hash

#: Default capacity of the per-value memo cache of a
#: :class:`ShingleVocabulary`. The cache only saves recomputation —
#: capping it bounds the memory of long-running streaming ingestion
#: without affecting results.
DEFAULT_VALUE_CACHE_SIZE = 65_536


class ShingleVocabulary:
    """Mutable interned shingle vocabulary for (incremental) shingling.

    One :class:`ShingleVocabulary` maps each distinct shingle string to
    a stable index and its 61-bit hash, exactly once, no matter how many
    corpus slabs are shingled against it — repeated grams across slabs
    skip interning, SHA-1 digesting and the memo caches' recomputation.
    Indices are append-only: a gram interned in slab 1 keeps its index
    in every later slab, so :class:`ShingledCorpus` objects built
    against the same vocabulary share one token id space (convenient
    for token-level work; minhash signatures are hash-based and do not
    depend on it).

    The vocabulary also owns the memo cache used by
    :meth:`repro.minhash.shingling.Shingler.shingle_corpus` — token ids
    per attribute value. It is LRU-capped (``max_cached_values``) so
    unbounded streams of distinct values cannot leak memory; an
    eviction merely costs re-tokenising that value if it reappears.

    A vocabulary is bound to the configuration of the first
    :class:`~repro.minhash.shingling.Shingler` that uses it; reusing it
    with a differently-configured shingler raises
    :class:`~repro.errors.ConfigurationError` (the memoised token ids
    would silently be wrong otherwise).
    """

    __slots__ = ("_index", "_hashes", "_snapshot", "_config", "value_tokens")

    def __init__(self, *, max_cached_values: int = DEFAULT_VALUE_CACHE_SIZE) -> None:
        self._index: dict[str, int] = {}
        self._hashes: list[int] = []
        self._snapshot: np.ndarray | None = None
        self._config: tuple[Hashable, ...] | None = None
        self.value_tokens = LRUCache(max_cached_values)

    def __len__(self) -> int:
        return len(self._index)

    def intern(self, gram: str) -> int:
        """Index of ``gram``, interning (and hashing) it on first sight."""
        index = self._index.get(gram)
        if index is None:
            index = len(self._index)
            self._index[gram] = index
            self._hashes.append(stable_hash(gram) % MERSENNE_PRIME_61)
        return index

    def hashes(self) -> np.ndarray:
        """Stable 61-bit ids of the vocabulary, index-aligned (uint64).

        The returned array is a snapshot: growing the vocabulary later
        produces a new, longer array and leaves previously returned
        snapshots (held by earlier :class:`ShingledCorpus` slabs)
        untouched.
        """
        if self._snapshot is None or self._snapshot.shape[0] != len(self._hashes):
            self._snapshot = np.asarray(self._hashes, dtype=np.uint64)
        return self._snapshot

    def bind_config(self, config: tuple[Hashable, ...]) -> None:
        """Pin the shingler configuration this vocabulary serves."""
        if self._config is None:
            self._config = config
        elif self._config != config:
            raise ConfigurationError(
                "ShingleVocabulary is bound to shingler configuration "
                f"{self._config!r}; cannot reuse it with {config!r}"
            )


@dataclass(frozen=True)
class ShingledCorpus:
    """Interned shingle sets of a record collection, stored by value.

    Attributes
    ----------
    record_ids:
        Record identifiers, one per row, in dataset order.
    value_codes:
        ``(n, A)`` int64: record ``i``'s value of the shingler's
        attribute ``j`` is distinct value ``value_codes[i, j]``.
    value_indptr:
        ``(U + 1,)`` int64 row pointers of the slab's ``U`` distinct
        values: value ``v`` owns tokens
        ``value_tokens[value_indptr[v]:value_indptr[v + 1]]``. A value
        without shingles (empty, or normalised to nothing) is an empty
        slice.
    value_tokens:
        Concatenated per-value vocabulary indices (int64), distinct
        within a value, in q-gram order.
    vocab_hashes:
        ``(V,)`` uint64 stable 61-bit shingle ids (already reduced
        modulo 2^61 - 1), one per distinct shingle string.

    The record-level CSR — ``indptr`` and ``token_vocab``, each
    record's shingle set with a gram two of its values share counted
    once — is derived on first read.
    """

    record_ids: tuple[str, ...]
    value_codes: np.ndarray
    value_indptr: np.ndarray
    value_tokens: np.ndarray
    vocab_hashes: np.ndarray

    @property
    def num_records(self) -> int:
        return len(self.record_ids)

    @property
    def num_values(self) -> int:
        return int(self.value_indptr.shape[0]) - 1

    @property
    def num_tokens(self) -> int:
        return int(self.indptr[-1])

    @property
    def vocab_size(self) -> int:
        return int(self.vocab_hashes.shape[0])

    @cached_property
    def row_index(self) -> dict[str, int]:
        """Record id -> row."""
        return {rid: i for i, rid in enumerate(self.record_ids)}

    @cached_property
    def _record_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, token_vocab)``: each record's values' tokens in
        attribute order, a token already seen in the record dropped."""
        n, num_attributes = self.value_codes.shape
        codes = self.value_codes.reshape(-1)
        lengths = np.diff(self.value_indptr)[codes]
        total = int(lengths.sum())
        # Concatenate the value slices of every (record, attribute) in
        # row-major order: stream position t of a slice starting at
        # stream offset o reads value_tokens[value_indptr[code] + t - o].
        offsets = np.cumsum(lengths) - lengths
        positions = np.arange(total, dtype=np.int64) + np.repeat(
            self.value_indptr[codes] - offsets, lengths
        )
        tokens = self.value_tokens[positions]
        record_lengths = lengths.reshape(n, num_attributes).sum(axis=1)
        if num_attributes > 1 and total:
            # Values are distinct within themselves, so a repeat can
            # only come from a second value of the same record: keep
            # the first occurrence of each (record, token).
            owner = np.repeat(np.arange(n, dtype=np.int64), record_lengths)
            _, first = np.unique(
                owner * (self.vocab_size + 1) + tokens, return_index=True
            )
            keep = np.zeros(total, dtype=bool)
            keep[first] = True
            tokens = tokens[keep]
            record_lengths = np.bincount(owner[keep], minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(record_lengths, out=indptr[1:])
        return indptr, tokens

    @property
    def indptr(self) -> np.ndarray:
        """``(n + 1,)`` int64 row pointers of the record-level CSR:
        record ``i`` owns ``token_vocab[indptr[i]:indptr[i + 1]]``."""
        return self._record_csr[0]

    @property
    def token_vocab(self) -> np.ndarray:
        """Concatenated per-record vocabulary indices (int64), distinct
        within a record, in the order its values' grams first appear."""
        return self._record_csr[1]

    @cached_property
    def counts(self) -> np.ndarray:
        """Shingle-set size per record."""
        return np.diff(self.indptr)

    def tokens_of(self, row: int) -> np.ndarray:
        """Vocabulary indices of one record's shingle set."""
        return self.token_vocab[self.indptr[row] : self.indptr[row + 1]]

    def shingle_ids_of(self, row: int) -> np.ndarray:
        """Stable hashed shingle ids of one record (unsorted uint64)."""
        return self.vocab_hashes[self.tokens_of(row)]

    def jaccard(self, row1: int, row2: int) -> float:
        """Exact Jaccard similarity of two records' shingle sets.

        Operates on interned vocabulary indices, so (unlike comparing
        hashed ids) it is exact even under 61-bit hash collisions.
        Two empty sets are fully similar, matching
        :meth:`repro.minhash.shingling.Shingler.jaccard`.
        """
        s1, s2 = self.tokens_of(row1), self.tokens_of(row2)
        if s1.size == 0 and s2.size == 0:
            return 1.0
        intersection = np.intersect1d(s1, s2, assume_unique=True).size
        union = s1.size + s2.size - intersection
        return intersection / union if union else 1.0
