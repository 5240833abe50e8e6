"""Shingling: record -> set of shingle ids (paper §5.1 step 1).

A shingler converts the values of the selected blocking attributes into
a set of q-grams (or whole-value tokens when ``q is None``, the paper's
"Exact Value" configuration), each mapped to a stable 61-bit integer id
so minhash can work on numeric arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.minhash.corpus import ShingledCorpus, ShingleVocabulary
from repro.records.record import Record
from repro.text.normalize import normalize
from repro.text.qgrams import qgrams
from repro.utils.hashing import MERSENNE_PRIME_61, stable_hash


@dataclass(frozen=True)
class Shingler:
    """Convert records into shingle (q-gram) id sets.

    Parameters
    ----------
    attributes:
        Attribute names whose values are shingled, e.g.
        ``("authors", "title")`` for Cora or ``("first_name",
        "last_name")`` for NC Voter.
    q:
        q-gram length, or ``None`` for whole-value shingles ("Exact
        Value" in Fig. 6).
    padded:
        Pad values before extracting q-grams (see :mod:`repro.text.qgrams`).
    """

    attributes: tuple[str, ...]
    q: int | None = 3
    padded: bool = False

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ConfigurationError("Shingler needs at least one attribute")
        if self.q is not None and self.q < 1:
            raise ConfigurationError(f"q must be >= 1 or None, got {self.q}")

    def shingles(self, record: Record) -> frozenset[str]:
        """The set of textual shingles of a record."""
        grams: set[str] = set()
        for attribute in self.attributes:
            value = normalize(record.get(attribute))
            if not value:
                continue
            if self.q is None:
                grams.add(f"{attribute}={value}")
            else:
                grams.update(qgrams(value, self.q, padded=self.padded))
        return frozenset(grams)

    def shingle_ids(self, record: Record) -> np.ndarray:
        """Stable numeric ids of the record's shingles (uint64).

        The *multiset* of ids is deterministic (SHA-1 based), but the
        array order is unspecified: minhash minima are order-invariant,
        so sorting here would be wasted work. Callers that need a
        canonical order (none in this library) must sort themselves.
        """
        ids = [
            stable_hash(gram) % MERSENNE_PRIME_61 for gram in self.shingles(record)
        ]
        return np.array(ids, dtype=np.uint64)

    def shingle_corpus(
        self,
        records: Iterable[Record],
        *,
        vocabulary: ShingleVocabulary | None = None,
    ) -> ShingledCorpus:
        """One-pass corpus shingling with an interned vocabulary.

        Each distinct shingle string across the whole corpus is
        SHA-1-hashed exactly once, and each distinct attribute value
        of the slab is tokenised once: records are stored as rows of
        value codes into a CSR of the slab's distinct values (see
        :class:`~repro.minhash.corpus.ShingledCorpus`). This is the
        entry point of the batch signature engine (see DESIGN.md):
        downstream kernels evaluate hash families over the vocabulary
        and the values instead of per record.

        Parameters
        ----------
        records:
            The records to shingle, in dataset order.
        vocabulary:
            Optional :class:`~repro.minhash.corpus.ShingleVocabulary`
            extended *in place* — the incremental/streaming mode. Pass
            the same vocabulary for successive record slabs and grams
            shared with earlier slabs are neither re-interned nor
            re-hashed, and all slabs share one token id space.
            Signatures are a pure function of the hashed gram multiset,
            so they are identical with or without a shared vocabulary —
            sharing buys throughput, not correctness. ``None`` (the
            default) uses a fresh private vocabulary, the one-shot
            behaviour.
        """
        vocab = ShingleVocabulary() if vocabulary is None else vocabulary
        vocab.bind_config((self.attributes, self.q, self.padded))
        record_ids: list[str] = []
        codes: list[int] = []
        # (attribute, value) of each distinct value, in order of first
        # sight over records and then attributes: interning the values
        # in this order gives every gram the vocabulary index a
        # record-by-record pass would.
        values: list[tuple[str, str]] = []
        seen = [(attribute, {}) for attribute in self.attributes]
        for record in records:
            record_ids.append(record.record_id)
            for attribute, codes_of in seen:
                value = record.get(attribute)
                code = codes_of.get(value)
                if code is None:
                    code = codes_of[value] = len(values)
                    values.append((attribute, value))
                codes.append(code)

        # Token ids per value are memoised on the vocabulary (LRU-capped),
        # so a value seen in an earlier slab skips normalisation, q-gram
        # extraction and interning.
        memo = vocab.value_tokens
        value_indptr = [0]
        tokens: list[int] = []
        for key in values:
            value_tokens = memo.get(key)
            if value_tokens is None:
                value_tokens = memo[key] = self._value_tokens(vocab, *key)
            tokens.extend(value_tokens)
            value_indptr.append(len(tokens))
        return ShingledCorpus(
            record_ids=tuple(record_ids),
            value_codes=np.asarray(codes, dtype=np.int64).reshape(
                len(record_ids), len(self.attributes)
            ),
            value_indptr=np.asarray(value_indptr, dtype=np.int64),
            value_tokens=np.asarray(tokens, dtype=np.int64),
            vocab_hashes=vocab.hashes(),
        )

    def _value_tokens(
        self, vocab: ShingleVocabulary, attribute: str, value: str
    ) -> list[int]:
        """Distinct token ids of one attribute value's shingles, in
        q-gram order (a gram repeated within the value counts once)."""
        normalized = normalize(value)
        if not normalized:
            return []
        if self.q is None:
            return [vocab.intern(f"{attribute}={normalized}")]
        grams = qgrams(normalized, self.q, padded=self.padded)
        return [vocab.intern(gram) for gram in dict.fromkeys(grams)]

    def jaccard(self, record1: Record, record2: Record) -> float:
        """Exact Jaccard similarity of two records' shingle sets.

        This is the textual similarity that minhash signatures
        approximate; used for similarity-distribution analysis (Fig. 6)
        and in tests.
        """
        s1, s2 = self.shingles(record1), self.shingles(record2)
        if not s1 and not s2:
            return 1.0
        union = len(s1 | s2)
        return len(s1 & s2) / union if union else 1.0
