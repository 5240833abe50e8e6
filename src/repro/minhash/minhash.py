"""Minhash signature generation (paper §5.1 step 2).

A minhash signature of length ``n`` approximates the Jaccard similarity
between shingle sets: the probability that one signature component
agrees between two records equals their Jaccard similarity (Broder et
al., 2000).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.minhash.corpus import ShingledCorpus
from repro.utils.hashing import MERSENNE_PRIME_61, UniversalHashFamily

#: Upper bound on the number of gathered hash values a single batch
#: chunk may materialise (elements, not bytes): bounds the working set
#: of :meth:`MinHasher.signature_matrix` at ~64 MiB of uint64 per chunk.
_CHUNK_ELEMENTS = 8_000_000

#: Token-stream length (sentinel included) from which the batch kernels
#: gather and reduce one hash function at a time (see DESIGN.md,
#: "Vocabulary-level minhash and `reduceat`"). Shorter streams keep one
#: multi-function chunk, which spreads numpy's per-call cost over many
#: functions while the chunk is still small enough to stay in cache.
_PER_FUNCTION_STREAM = 4096


def chunk_spans(total: int, per_chunk: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into contiguous ``(lo, hi)`` spans."""
    if per_chunk < 1:
        raise ConfigurationError(f"per_chunk must be >= 1, got {per_chunk}")
    return [(lo, min(lo + per_chunk, total)) for lo in range(0, total, per_chunk)]


#: Byte budget of one :class:`HashColumns` table: about 31k shingle ids
#: at k·l = 135, far above a voter bigram vocabulary, while a q=4
#: bibliographic vocabulary past it falls back to hashing per probe.
_HASH_COLUMN_BYTES = 32 << 20


def sentinel_stream(
    corpus: ShingledCorpus,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sentinel-extended token stream of a corpus: ``(tokens_ext,
    starts, empty_rows)``.

    The token stream gains one virtual sentinel token (vocabulary index
    ``V``, hashing to the modulus ``p`` under every function). This
    keeps every ``reduceat`` start index in range (a trailing empty
    record's start equals the stream length) without truncating the
    last non-empty segment, and ``p`` never wins a minimum because real
    hash values are < p. Empty records mid-stream reduce to a
    neighbour's value — callers overwrite ``empty_rows`` with the
    sentinel afterwards.
    """
    tokens_ext = np.concatenate([corpus.token_vocab, [corpus.vocab_size]])
    return tokens_ext, corpus.indptr[:-1], corpus.counts == 0


def compact_vocabulary(
    corpus: ShingledCorpus, tokens_ext: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Restrict the vocabulary to the entries ``tokens_ext`` references.

    A corpus shingled against a shared growing
    :class:`~repro.minhash.corpus.ShingleVocabulary` (the streaming
    path) carries the *cumulative* vocabulary, of which a small slab
    may reference only a sliver — evaluating the hash family over all
    of it per slab would repeat work proportional to the stream's
    history. When the vocabulary outgrows the token stream (impossible
    for a one-shot corpus, whose every entry is referenced), remap the
    stream to the compact set of used entries; the appended sentinel
    index stays the largest, i.e. ``len(hashes)`` after compaction.

    Returns ``(vocab_hashes, tokens_ext)``, unchanged when compaction
    would not pay for its ``np.unique``.
    """
    if corpus.vocab_size <= tokens_ext.shape[0]:
        return corpus.vocab_hashes, tokens_ext
    used, remapped = np.unique(tokens_ext, return_inverse=True)
    # `used` is sorted, so its last entry is the sentinel index
    # (vocab_size, the largest value in the stream) — drop it from the
    # hash gather; the remapped sentinel lands on column len(used) - 1,
    # exactly where gathered_span appends the sentinel value.
    return corpus.vocab_hashes[used[:-1]], remapped


class MinHasher:
    """Produce minhash signatures with ``num_hashes`` hash functions.

    Parameters
    ----------
    num_hashes:
        Signature length ``n = k * l`` (rows per band times bands).
    seed:
        Seed for the universal hash coefficients; two MinHashers with
        the same seed produce identical signatures.
    """

    def __init__(self, num_hashes: int, seed: int = 0) -> None:
        if num_hashes < 1:
            raise ConfigurationError(
                f"num_hashes must be >= 1, got {num_hashes}"
            )
        self.num_hashes = num_hashes
        self.seed = seed
        self._family = UniversalHashFamily(num_hashes, seed)

    def signature(self, shingle_ids: np.ndarray) -> np.ndarray:
        """Minhash signature (uint64 array of length ``num_hashes``).

        Empty shingle sets yield the sentinel signature (all entries
        equal to the hash modulus), which never collides with non-empty
        records and collides with other empty records — mirroring the
        convention that two fully-missing records are textually
        identical.
        """
        return self._family.min_over(shingle_ids)

    def signature_matrix(
        self,
        corpus: ShingledCorpus,
        *,
        chunk_elements: int = _CHUNK_ELEMENTS,
    ) -> np.ndarray:
        """Minhash signatures for a whole corpus in one vectorized pass.

        Evaluates the universal hash family over the interned shingle
        *vocabulary* once (each distinct shingle hashed ``num_hashes``
        times total, however many records contain it), gathers the
        values along the corpus's CSR of distinct attribute values, and
        reduces per-value minima with ``np.minimum.reduceat``. A
        record's shingle set is the union of its values' shingles, so
        its signature is the element-wise minimum of its value rows;
        an empty value's row is the sentinel p, which never wins a
        minimum, and a record whose values are all empty keeps it.

        The value pass runs as a serial loop over blocks of hash
        functions laid out by :meth:`gathered_blocks` — one
        multi-function chunk on short token streams, one function at a
        time on long ones — and the record pass over row blocks, so no
        intermediate exceeds ``chunk_elements`` values (see DESIGN.md,
        "Vocabulary-level minhash and `reduceat`"); each block writes a
        disjoint slice, so neither the layout nor the block size
        changes a byte of the result.

        Parameters
        ----------
        chunk_elements:
            Working-set cap per block (uint64 values gathered along a
            short stream, hashed over the vocabulary for a long one, or
            gathered per record block).

        Returns a ``(num_records, num_hashes)`` uint64 matrix whose row
        ``i`` is byte-identical to ``signature(shingle_ids(record_i))``,
        including the empty-set sentinel rows.
        """
        n = corpus.num_records
        out = np.empty((n, self.num_hashes), dtype=np.uint64)
        if n == 0:
            return out
        if corpus.value_tokens.size == 0:
            out[:] = np.uint64(MERSENNE_PRIME_61)
            return out
        values = self._value_signatures(corpus, chunk_elements)
        codes = corpus.value_codes
        rows = self.rows_per_chunk(self.num_hashes * codes.shape[1], chunk_elements)
        for lo, hi in chunk_spans(n, rows):
            block = out[lo:hi]
            # Codes index value rows by construction: "clip" only drops
            # the bounds check that makes take() buffer its output.
            np.take(values, codes[lo:hi, 0], axis=0, out=block, mode="clip")
            for column in range(1, codes.shape[1]):
                np.minimum(
                    block, np.take(values, codes[lo:hi, column], axis=0), out=block
                )
        return out

    def _value_signatures(
        self, corpus: ShingledCorpus, chunk_elements: int = _CHUNK_ELEMENTS
    ) -> np.ndarray:
        """``(num_values, num_hashes)`` signatures of the corpus's
        distinct values; an empty value's row is the sentinel p."""
        indptr = corpus.value_indptr
        tokens_ext = np.concatenate([corpus.value_tokens, [corpus.vocab_size]])
        starts = indptr[:-1]
        empty_values = indptr[1:] == starts
        vocab_hashes, tokens_ext = compact_vocabulary(corpus, tokens_ext)
        values = np.empty((corpus.num_values, self.num_hashes), dtype=np.uint64)
        for lo, hi, parts in self.gathered_blocks(
            vocab_hashes, tokens_ext, chunk_elements
        ):
            minima = np.vstack(
                [np.minimum.reduceat(g, starts, axis=-1) for g in parts]
            )
            minima[:, empty_values] = MERSENNE_PRIME_61
            values[:, lo:hi] = minima.T
        return values

    def rows_per_chunk(self, width: int, chunk_elements: int) -> int:
        """Hash functions per chunk keeping ``rows × width`` under the cap."""
        return max(1, min(self.num_hashes, chunk_elements // max(width, 1)))

    def gathered_blocks(
        self,
        vocab_hashes: np.ndarray,
        tokens_ext: np.ndarray,
        chunk_elements: int,
    ) -> Iterator[tuple[int, int, Iterable[np.ndarray]]]:
        """Hash values of every function along the token stream.

        Yields ``(lo, hi, parts)``: ``parts`` holds the values of
        functions ``lo..hi`` gathered along the sentinel-extended token
        stream, as arrays whose last axis is the stream. The layout
        follows the stream length (DESIGN.md, "Vocabulary-level minhash
        and `reduceat`"):

        * below ``_PER_FUNCTION_STREAM`` tokens, one ``(hi - lo,
          stream)`` chunk, at most ``chunk_elements`` gathered values;
        * from there on, the family is evaluated over the vocabulary in
          blocks of at most ``chunk_elements`` values, and each
          function's row is gathered on its own into one 1-D
          ``(stream,)`` array, produced lazily so that it is reduced
          while it is still in cache.

        Pure function of its inputs: both layouts carry the same values.
        """
        stream = tokens_ext.shape[0]
        if stream < _PER_FUNCTION_STREAM:
            for lo, hi in chunk_spans(
                self.num_hashes, self.rows_per_chunk(stream, chunk_elements)
            ):
                values = self.vocab_values(vocab_hashes, lo, hi)
                # take() returns the chunk C-ordered; values[:, tokens_ext]
                # would return it F-ordered, and the row-wise reduceat
                # would then stride across the whole chunk.
                yield lo, hi, (np.take(values, tokens_ext, axis=1),)
            return
        for lo, hi in chunk_spans(
            self.num_hashes,
            self.rows_per_chunk(vocab_hashes.shape[0] + 1, chunk_elements),
        ):
            values = self.vocab_values(vocab_hashes, lo, hi)
            yield lo, hi, (row[tokens_ext] for row in values)

    def vocab_values(
        self, vocab_hashes: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """Functions ``lo..hi`` over the vocabulary plus the sentinel.

        The ``(hi - lo, len(vocab_hashes) + 1)`` matrix of hash values;
        the last column is the sentinel token's value p, indexed by
        ``len(vocab_hashes)`` in the sentinel-extended stream.
        """
        values = np.empty((hi - lo, vocab_hashes.shape[0] + 1), dtype=np.uint64)
        values[:, :-1] = self._family.hash_values(vocab_hashes, lo, hi)
        values[:, -1] = MERSENNE_PRIME_61
        return values

    def estimate_jaccard(self, sig1: np.ndarray, sig2: np.ndarray) -> float:
        """Fraction of agreeing components — unbiased Jaccard estimate."""
        if sig1.shape != sig2.shape:
            raise ValueError("signatures must have the same length")
        return float(np.mean(sig1 == sig2))


class HashColumns:
    """Memoised hash columns: single-record signatures as a gather.

    Maps each shingle id a probe has carried to a row of an append-only
    ``(rows, num_hashes)`` uint64 table holding the id's value under
    every function of ``hasher``'s family, so a probe's signature is
    ``table[rows].min(axis=0)``. Ids not seen before are hashed in one
    :meth:`~repro.utils.hashing.UniversalHashFamily.hash_values` call
    and appended. The table is allocated on the first probe and holds at
    most :data:`_HASH_COLUMN_BYTES`; past that, ids not yet cached are
    hashed on every probe and the signature is the element-wise minimum
    of the cached and the fresh parts. Either way :meth:`signature`
    equals :meth:`MinHasher.signature` byte for byte (the same values,
    reduced by the same exact minimum).

    Keyed by shingle id, not by a vocabulary index: probes carry grams
    no indexed record has.
    """

    __slots__ = ("_family", "_num_hashes", "_rows", "_table")

    def __init__(self, hasher: MinHasher) -> None:
        self._family = hasher._family
        self._num_hashes = hasher.num_hashes
        self._rows: dict[int, int] = {}
        self._table: np.ndarray | None = None

    def signature(self, shingle_ids: np.ndarray) -> np.ndarray:
        """The minhash signature of one shingle-id set."""
        ids = shingle_ids.tolist()
        if not ids:
            return np.full(self._num_hashes, MERSENNE_PRIME_61, dtype=np.uint64)
        rows = self._rows
        cached = [rows.get(i) for i in ids]
        overflow = None
        if None in cached:
            overflow = self._append(
                list(dict.fromkeys(i for i, row in zip(ids, cached) if row is None))
            )
            cached = [rows[i] for i in ids if i in rows]
            if not cached:
                return overflow
        signature = self._table[cached].min(axis=0)
        return signature if overflow is None else np.minimum(signature, overflow)

    def _append(self, missing: list[int]) -> np.ndarray | None:
        """Hash ``missing`` ids in one call and cache as many as the
        budget allows; the minimum over the rest, or ``None``."""
        values = self._family.hash_values(np.array(missing, dtype=np.uint64)).T
        start = len(self._rows)
        capacity = max(1, _HASH_COLUMN_BYTES // (8 * self._num_hashes))
        take = max(0, min(len(missing), capacity - start))
        if take:
            table = self._table
            if table is None or start + take > table.shape[0]:
                size = min(capacity, max(256, 2 * start + take))
                grown = np.empty((size, self._num_hashes), dtype=np.uint64)
                if table is not None:
                    grown[:start] = table[:start]
                self._table = grown
            self._table[start : start + take] = values[:take]
            self._rows.update(zip(missing[:take], range(start, start + take)))
        return values[take:].min(axis=0) if take < len(missing) else None
