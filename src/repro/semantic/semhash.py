"""Semhash signatures (paper Algorithm 1).

The encoder chooses the concept subset C (one bit per *leaf* concept
reachable from any record's interpretation) and produces binary
signatures ``G(r)`` with ``g_i(r) = 1`` iff leaf concept ``c_i`` is
subsumed by some concept of ζ(r). C satisfies the three conditions of
§4.4 by construction:

* **Disjointness** — leaves of a tree are pairwise unrelated.
* **Completeness** — every leaf under any interpreted concept is in C.
* **Non-emptiness** — bits only exist for leaves some record reaches.

By Prop. 4.3 (exact in this construction — see DESIGN.md) the Jaccard
similarity of two signatures equals the records' semantic similarity.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError, SemanticFunctionError
from repro.records.record import Record
from repro.semantic.interpretation import SemanticFunction
from repro.utils.cache import LRUCache

#: Distinct interpretations whose semhash row :meth:`SemhashEncoder.
#: encode` and the batch encoder keep.
_ENCODED_ROWS = 4096


def recommended_sample_size(
    population: int,
    *,
    min_frequency: float = 0.01,
    miss_probability: float = 0.01,
    floor: int = 256,
) -> int:
    """Principled sample size for fitting a streamed semhash encoder.

    A sample-fitted encoder (:meth:`SemhashEncoder.fit`) misses a leaf
    concept — and silently drops it from every later signature — only
    when *no* sampled record reaches it. For a concept reached by at
    least a fraction ``p = min_frequency`` of the population, a uniform
    sample of ``m`` records misses it with probability
    ``(1 - p)^m <= exp(-p * m)``; solving ``exp(-p * m) <= delta`` for
    ``delta = miss_probability`` gives ``m >= ln(1 / delta) / p``. The
    default ``p = delta = 0.01`` yields m = 461: every concept covering
    at least 1% of the stream survives with 99% probability, however
    large the stream is — the required sample size is driven by the
    rarity you care about, not the population. ``floor`` guards tiny
    configurations and the result is capped at the population (a
    sample cannot exceed it).
    """
    if not 0.0 < min_frequency <= 1.0:
        raise ConfigurationError(
            f"min_frequency must be in (0, 1], got {min_frequency}"
        )
    if not 0.0 < miss_probability < 1.0:
        raise ConfigurationError(
            f"miss_probability must be in (0, 1), got {miss_probability}"
        )
    if population <= 0:
        return 0
    needed = math.ceil(math.log(1.0 / miss_probability) / min_frequency)
    return min(population, max(floor, needed))


def semhash_jaccard(sig1: np.ndarray, sig2: np.ndarray) -> float:
    """Jaccard of two binary signatures; all-zero vs anything is 0.

    The all-zero convention matches Proposition 4.2: a record with an
    empty interpretation is semantically similar to nothing.
    """
    if sig1.shape != sig2.shape:
        raise ValueError("signatures must have the same length")
    ones1 = int(sig1.sum())
    ones2 = int(sig2.sum())
    if ones1 == 0 or ones2 == 0:
        return 0.0
    intersection = int(np.minimum(sig1, sig2).sum())
    union = ones1 + ones2 - intersection
    return intersection / union


if hasattr(np, "bitwise_count"):
    _popcount = np.bitwise_count
else:  # numpy < 2.0: per-byte lookup table over the packed uint8 arrays.
    _POPCOUNT_TABLE = np.array(
        [bin(value).count("1") for value in range(256)], dtype=np.uint8
    )

    def _popcount(packed: np.ndarray) -> np.ndarray:
        return _POPCOUNT_TABLE[packed]


def pack_signatures(signatures: np.ndarray) -> np.ndarray:
    """Pack an (n, num_bits) 0/1 matrix into (n, ceil(num_bits / 8)) bytes.

    The packed form is 8× smaller and supports popcount-based Jaccard
    (:func:`semhash_jaccard_packed`) — the representation used by the
    batch similarity/analysis paths.
    """
    return np.packbits(signatures.astype(np.uint8, copy=False), axis=-1)


def unpack_signatures(packed: np.ndarray, num_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_signatures` (trailing pad bits dropped)."""
    return np.unpackbits(packed, axis=-1)[..., :num_bits]


def semhash_jaccard_packed(packed1: np.ndarray, packed2: np.ndarray) -> float:
    """Jaccard of two :func:`pack_signatures`-packed signatures.

    Uses hardware popcounts over the packed bytes; equal to
    :func:`semhash_jaccard` on the unpacked signatures (pad bits are
    zero, so they never contribute).
    """
    if packed1.shape != packed2.shape:
        raise ValueError("signatures must have the same length")
    ones1 = int(_popcount(packed1).sum())
    ones2 = int(_popcount(packed2).sum())
    if ones1 == 0 or ones2 == 0:
        return 0.0
    intersection = int(_popcount(packed1 & packed2).sum())
    union = ones1 + ones2 - intersection
    return intersection / union


def pairwise_jaccard_packed(
    packed1: np.ndarray, packed2: np.ndarray
) -> np.ndarray:
    """Row-wise packed Jaccard for two aligned (m, bytes) stacks.

    Vectorizes the training-pair similarity loops of the analysis path:
    one popcount pass instead of m Python-level comparisons. All-zero
    rows yield 0.0, as in :func:`semhash_jaccard`.
    """
    if packed1.shape != packed2.shape:
        raise ValueError("signature stacks must have the same shape")
    ones1 = _popcount(packed1).sum(axis=-1, dtype=np.int64)
    ones2 = _popcount(packed2).sum(axis=-1, dtype=np.int64)
    intersection = _popcount(packed1 & packed2).sum(axis=-1, dtype=np.int64)
    union = ones1 + ones2 - intersection
    with np.errstate(invalid="ignore", divide="ignore"):
        similarity = np.where(union > 0, intersection / np.maximum(union, 1), 0.0)
    return np.where((ones1 == 0) | (ones2 == 0), 0.0, similarity)


class SemhashEncoder:
    """Generate semhash signatures for the records of a dataset.

    The encoder is *frozen at construction*: the bit set C is fixed from
    the records it is built on and never mutates afterwards. Records
    outside the construction population encode against the same bits —
    leaf concepts they reach that are absent from C are dropped (their
    signature simply lacks those bits) — so a single encoder fitted on
    a training slab can encode an unbounded stream of unseen records
    with stable ``num_bits`` (see :meth:`fit` and DESIGN.md,
    "Sample-frozen semantic encoder").

    Parameters
    ----------
    semantic_function:
        The semantic function ζ (carries its taxonomy forest).
    records:
        The record population used to select the bit concepts C
        (Algorithm 1 step 1). Bits are sorted by concept id for
        determinism.
    """

    def __init__(
        self, semantic_function: SemanticFunction, records: Iterable[Record]
    ) -> None:
        interpretations: dict[str, frozenset[str]] = {
            record.record_id: semantic_function.interpret(record)
            for record in records
        }
        self.semantic_function = semantic_function
        forest = semantic_function.forest
        bit_concepts: set[str] = set()
        for concept_id in set().union(*set(interpretations.values())):
            bit_concepts |= forest.leaf_set(concept_id)
        if not bit_concepts:
            raise SemanticFunctionError(
                "no record produced any concept; cannot build semhash bits"
            )
        self.bits: tuple[str, ...] = tuple(sorted(bit_concepts))
        self._bit_index = {c: i for i, c in enumerate(self.bits)}
        self._interpretations = interpretations
        # concept id -> sorted array of bit indices its leaf set covers.
        # Memoized so the leaf expansion of each concept is resolved
        # against the bit set once per corpus, not once per record.
        self._concept_bits: dict[str, np.ndarray] = {}

    @classmethod
    def fit(
        cls, semantic_function: SemanticFunction, sample: Iterable[Record]
    ) -> "SemhashEncoder":
        """Freeze an encoder from a training sample.

        The returned encoder's bit set is learned from ``sample`` only;
        it then encodes arbitrary unseen records without mutating state,
        which is what lets :meth:`repro.core.salsh_blocker.SALSHBlocker.
        block_stream` process slabs the encoder has never seen. A sample
        that misses rare concepts yields a smaller C — signatures stay
        valid (Prop. 4.2/4.3 hold over the chosen bits) but blocking
        recall can dip for records whose only shared concepts fall
        outside C; the streamed SA-LSH tests bound that dip.
        """
        return cls(semantic_function, sample)

    @classmethod
    def fit_sampled(
        cls,
        semantic_function: SemanticFunction,
        records: Iterable[Record],
        *,
        seed: int = 0,
        min_frequency: float = 0.01,
        miss_probability: float = 0.01,
        floor: int = 256,
    ) -> "SemhashEncoder":
        """:meth:`fit` on a deterministic sample of principled size.

        Draws :func:`recommended_sample_size` records uniformly (seeded,
        so repeated fits agree) and freezes the encoder on them — the
        standard way to bootstrap the streamed SA-LSH path when the
        corpus is too large to interpret up front. See
        :func:`recommended_sample_size` for the size rule and its
        guarantee.
        """
        population = records if isinstance(records, list) else list(records)
        size = recommended_sample_size(
            len(population),
            min_frequency=min_frequency,
            miss_probability=miss_probability,
            floor=floor,
        )
        if size >= len(population):
            sample = population
        else:
            from repro.utils.rand import rng_from_seed

            rng = rng_from_seed(seed, "semhash-fit-sample", size)
            sample = rng.sample(population, size)
        return cls(semantic_function, sample)

    def __getstate__(self) -> dict:
        # The row memo is rebuilt on demand; checkpoints pickle the
        # encoder.
        state = self.__dict__.copy()
        state.pop("_rows", None)
        return state

    @property
    def num_bits(self) -> int:
        return len(self.bits)

    def interpretation(self, record: Record) -> frozenset[str]:
        """ζ(record), cached for records seen at construction time."""
        cached = self._interpretations.get(record.record_id)
        if cached is not None:
            return cached
        return self.semantic_function.interpret(record)

    def _bits_for(self, concept_id: str) -> np.ndarray:
        """Bit indices covered by one concept's leaf set (memoized).

        Unseen leaf concepts (possible for records outside the
        construction population) are dropped — signatures only span the
        chosen bit set C.
        """
        cached = self._concept_bits.get(concept_id)
        if cached is None:
            forest = self.semantic_function.forest
            indices = [
                self._bit_index[leaf]
                for leaf in forest.leaf_set(concept_id)
                if leaf in self._bit_index
            ]
            cached = np.array(sorted(indices), dtype=np.int64)
            self._concept_bits[concept_id] = cached
        return cached

    def encode(self, record: Record) -> np.ndarray:
        """The semhash signature ``G(record)`` of a probe, as read-only
        uint8.

        ζ is interpreted from the record's own fields, never taken from
        the construction-time cache: a probe may carry an indexed
        record's id with other values, and the cached ζ would gate it
        with that record's semantics. The row is memoised per ζ.
        """
        return self._row(self.semantic_function.interpret(record))

    def encode_interpretation(self, zeta: Iterable[str]) -> np.ndarray:
        """The semhash signature of one precomputed ζ, as uint8."""
        signature = np.zeros(self.num_bits, dtype=np.uint8)
        for concept_id in zeta:
            signature[self._bits_for(concept_id)] = 1
        return signature

    def _row(self, zeta: frozenset[str]) -> np.ndarray:
        """:meth:`encode_interpretation` of ``zeta``, memoised read-only.

        The memo is LRU-capped and left out of pickles.
        """
        try:
            memo = self._rows
        except AttributeError:
            memo = self._rows = LRUCache(_ENCODED_ROWS)
        row = memo.get(zeta)
        if row is None:
            row = self.encode_interpretation(zeta)
            row.flags.writeable = False
            memo[zeta] = row
        return row

    def signature_matrix(self, records: Iterable[Record]) -> np.ndarray:
        """Stack of signatures, one row per record — the batch encoder.

        Each distinct ζ among the records is encoded once; the rows
        reach the records through one gather.
        """
        return self.matrix_from_interpretations(
            self.interpretation(record) for record in records
        )

    def matrix_from_interpretations(
        self, zetas: Iterable[frozenset[str]]
    ) -> np.ndarray:
        """Signature stack from precomputed ζ values, one row per set.

        The core of :meth:`signature_matrix`. The ζ values are
        factorised: each distinct one takes its memoised row
        (:meth:`_row`), and an inverse index scatters the rows to their
        records.
        """
        codes: dict[frozenset[str], int] = {}
        inverse = [codes.setdefault(frozenset(zeta), len(codes)) for zeta in zetas]
        if not inverse:
            return np.zeros((0, self.num_bits), dtype=np.uint8)
        rows = np.stack([self._row(zeta) for zeta in codes])
        return rows[np.asarray(inverse, dtype=np.intp)]

    def packed_signature_matrix(self, records: Iterable[Record]) -> np.ndarray:
        """:meth:`signature_matrix` packed with :func:`pack_signatures`."""
        return pack_signatures(self.signature_matrix(records))
