"""Universal hashing used by minhash and the LSH index.

Minhash needs a family of approximately min-wise independent hash
functions. We use the classic multiply-add family

    h_i(x) = ((a_i * x + b_i) mod p)

with ``p`` the Mersenne prime 2^61 - 1, which is large enough that
collisions among shingle ids are negligible and small enough that numpy
``uint64`` arithmetic stays exact after a modular reduction.

The family supports two evaluation modes:

* :meth:`UniversalHashFamily.min_over` — per-record minima, the legacy
  one-record-at-a-time path;
* :meth:`UniversalHashFamily.hash_values` — the full (rows × values)
  hash matrix over an interned shingle *vocabulary*, evaluated once per
  corpus by the batch signature engine (see DESIGN.md, "Batch signature
  engine").
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

from repro.utils.rand import rng_from_seed

#: Mersenne prime 2^61 - 1 used as the modulus of the hash family.
MERSENNE_PRIME_61 = (1 << 61) - 1


#: Hard cap on the process-wide SHA-1 memo. q-gram vocabularies of even
#: web-scale corpora stay far below this, so hits stay hot, while a
#: streaming workload hashing unbounded distinct strings (the long-run
#: ingestion case — see DESIGN.md, "Streaming runtime")
#: tops out around ~35 MB of cache instead of leaking without bound.
STABLE_HASH_CACHE_SIZE = 1 << 18


@lru_cache(maxsize=STABLE_HASH_CACHE_SIZE)
def stable_hash(value: str, *, bits: int = 61) -> int:
    """Hash a string to a stable non-negative integer of ``bits`` bits.

    Python's builtin ``hash`` is salted per process; benchmarks and tests
    need identical shingle ids across runs, so we use SHA-1. The result
    is memoized with an LRU cap of :data:`STABLE_HASH_CACHE_SIZE`:
    q-grams repeat heavily across the records of a corpus, so each
    distinct gram is digested once while it stays hot, and an eviction
    only costs a re-digest — the value is a pure function of the input.
    """
    digest = hashlib.sha1(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << bits) - 1)


class UniversalHashFamily:
    """A family of ``n`` multiply-add hash functions modulo 2^61 - 1.

    Parameters
    ----------
    n:
        Number of hash functions in the family.
    seed:
        Seed for drawing the (a, b) coefficients.

    The family evaluates all ``n`` functions on a vector of inputs at
    once (used to minhash a record's shingle set in one numpy call), or
    a contiguous subset of functions over a whole vocabulary (used by
    the corpus-level batch engine, which chunks over functions to bound
    memory).
    """

    def __init__(self, n: int, seed: int) -> None:
        if n <= 0:
            raise ValueError(f"need at least one hash function, got n={n}")
        rng = rng_from_seed(seed, "universal-hash")
        self.n = n
        # a must be non-zero for the family to be universal.
        self._a = np.array(
            [rng.randrange(1, MERSENNE_PRIME_61) for _ in range(n)], dtype=np.uint64
        )
        self._b = np.array(
            [rng.randrange(0, MERSENNE_PRIME_61) for _ in range(n)], dtype=np.uint64
        )

    def min_over(self, values: np.ndarray) -> np.ndarray:
        """Return ``min_x h_i(x)`` for each function i over input values.

        ``values`` is a 1-D ``uint64`` array of shingle ids already
        reduced modulo 2^61 - 1. Result is a 1-D array of length ``n``.
        """
        if values.size == 0:
            # Empty shingle sets hash to a sentinel that never collides
            # with a real minimum (the modulus itself is unreachable).
            return np.full(self.n, MERSENNE_PRIME_61, dtype=np.uint64)
        return _modmul_add(self._a, self._b, values).min(axis=1)

    def hash_values(
        self, values: np.ndarray, lo: int = 0, hi: int | None = None
    ) -> np.ndarray:
        """The (hi - lo, m) matrix of hash values for functions lo..hi.

        This is the vocabulary-level evaluation of the batch engine:
        callers hash each distinct shingle once and take per-record
        minima by gathering columns, instead of re-evaluating the family
        per record. numpy uint64 wraps mod 2^64, which would break the
        algebra, so the multiply is done exactly with 30/31-bit splits
        (see :func:`_modmul_add`).
        """
        if hi is None:
            hi = self.n
        return _modmul_add(self._a[lo:hi], self._b[lo:hi], values)

    def hash_matrix(self, values: np.ndarray) -> np.ndarray:
        """The full (n, m) hash matrix via exact Python-int arithmetic.

        Kept as an independent object-dtype reference implementation for
        tests of the split-multiply trick; use :meth:`hash_values` in
        production code.
        """
        a = self._a.astype(object)[:, None]
        b = self._b.astype(object)[:, None]
        v = values.astype(object)[None, :]
        return ((a * v + b) % MERSENNE_PRIME_61).astype(np.uint64)


def _modmul_add(a: np.ndarray, b: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Compute the (n, m) matrix ``(a_i * x + b_i) mod p`` exactly.

    Splits each 61-bit operand into 30/31-bit halves so every partial
    product fits in a uint64, then reduces modulo p = 2^61 - 1 using the
    Mersenne identity ``2^61 ≡ 1 (mod p)``.
    """
    p = np.uint64(MERSENNE_PRIME_61)
    x = values[None, :]  # (1, m)
    a_col = a[:, None]  # (n, 1)
    b_col = b[:, None]  # (n, 1)

    lo_mask = np.uint64((1 << 31) - 1)
    a_lo = a_col & lo_mask
    a_hi = a_col >> np.uint64(31)
    x_lo = x & lo_mask
    x_hi = x >> np.uint64(31)

    # a*x = a_hi*x_hi*2^62 + (a_hi*x_lo + a_lo*x_hi)*2^31 + a_lo*x_lo
    # Reduce each term modulo p (2^61 ≡ 1, hence 2^62 ≡ 2).
    t_hh = (a_hi * x_hi) % p  # < p, times 2^62 ≡ *2
    t_mid = (a_hi * x_lo + a_lo * x_hi) % p  # times 2^31
    t_ll = (a_lo * x_lo) % p

    term_hh = (t_hh * np.uint64(2)) % p
    # t_mid * 2^31 may exceed 64 bits: split t_mid again.
    m_lo = t_mid & lo_mask
    m_hi = t_mid >> np.uint64(31)
    # t_mid * 2^31 = m_hi*2^62 + m_lo*2^31  ->  m_hi*2 + m_lo*2^31 (mod p)
    term_mid = (m_hi * np.uint64(2) + ((m_lo << np.uint64(31)) % p)) % p

    prod = (term_hh + term_mid + t_ll) % p
    return (prod + b_col) % p
