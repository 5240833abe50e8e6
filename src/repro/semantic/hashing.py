"""w-way AND/OR semantic hash functions (paper §5.2).

A single semantic hash function ``h_g`` fires for a pair of records when
both have bit ``g`` set in their semhash signatures. A w-way function
combines ``w`` randomly chosen such functions with AND or OR. SA-LSH
augments every minhash hash table with one w-way function; the
per-table bucket construction stays O(n):

* **AND** — a record enters the table only when *all* w chosen bits are
  set, under a single gate suffix; two records collide iff both pass,
  which is exactly ``h_g1 ∧ ... ∧ h_gw``.
* **OR** — a record enters once per set bit among the w chosen; two
  records collide iff they share a set chosen bit, which is exactly
  ``h_g1 ∨ ... ∨ h_gw``.

Gate suffixes are integer codes in both modes: the OR gate's semhash
bit indices, and the AND gate's one negative code, :data:`AND_SUFFIX`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.lsh.collision import wway_collision_probability
from repro.utils.cache import LRUCache
from repro.utils.rand import rng_from_seed

#: The AND gate's one suffix code; negative, so never a bit index.
AND_SUFFIX = -1

#: Distinct semhash rows :meth:`WWaySemanticHashFamily.probe_suffixes`
#: keeps. A taxonomy-driven semhash takes few distinct rows (a voter
#: row is one race × gender interpretation), so probes hit the memo.
_PROBE_SUFFIX_ROWS = 4096


class WWaySemanticHashFamily:
    """Per-table w-way semantic gates over semhash signatures.

    Parameters
    ----------
    num_bits:
        Length of the semhash signatures.
    w:
        Number of semhash functions per table; ``w='all'`` uses every
        bit (the "lowest semantic threshold" configuration of Fig. 9 —
        an OR over all bits requires at least one shared concept).
    mode:
        ``"and"`` or ``"or"``.
    num_tables:
        Number of LSH hash tables (l); each draws its own w bits.
    seed:
        Seed for the per-table bit choices.
    """

    def __init__(
        self,
        num_bits: int,
        w: int | str,
        mode: str,
        num_tables: int,
        seed: int = 0,
    ) -> None:
        if mode not in ("and", "or"):
            raise ConfigurationError(f"mode must be 'and' or 'or', got {mode!r}")
        if num_bits < 1:
            raise ConfigurationError(f"num_bits must be >= 1, got {num_bits}")
        if num_tables < 1:
            raise ConfigurationError(f"num_tables must be >= 1, got {num_tables}")
        if w == "all":
            w = num_bits
        if not isinstance(w, int) or not 1 <= w <= num_bits:
            raise ConfigurationError(
                f"w must be an int in [1, {num_bits}] or 'all', got {w!r}"
            )
        self.num_bits = num_bits
        self.w = w
        self.mode = mode
        self.num_tables = num_tables
        rng = rng_from_seed(seed, "wway", mode, w, num_tables)
        self._chosen: list[tuple[int, ...]] = [
            tuple(sorted(rng.sample(range(num_bits), w))) for _ in range(num_tables)
        ]
        self._probe_memo = LRUCache(_PROBE_SUFFIX_ROWS)

    def chosen_bits(self, table: int) -> tuple[int, ...]:
        """The w bit indices drawn for one hash table."""
        return self._chosen[table]

    def gate_suffixes(self, table: int, signature: np.ndarray) -> tuple[int, ...]:
        """Bucket-key suffix codes for one record in one table.

        Empty result means the record is excluded from the table.
        """
        chosen = self._chosen[table]
        if self.mode == "and":
            if all(signature[i] for i in chosen):
                return (AND_SUFFIX,)
            return ()
        return tuple(i for i in chosen if signature[i])

    def probe_suffixes(self, signature: np.ndarray) -> tuple[tuple[int, ...], ...]:
        """:meth:`gate_suffixes` of one semhash row in every table.

        The single-record query path: memoised by the row's dtype and
        bytes, so a probe whose semhash row an earlier probe carried
        costs one lookup instead of ``num_tables`` gate evaluations.
        """
        key = (signature.dtype.char, signature.tobytes())
        suffixes = self._probe_memo.get(key)
        if suffixes is None:
            suffixes = tuple(
                self.gate_suffixes(table, signature)
                for table in range(self.num_tables)
            )
            self._probe_memo[key] = suffixes
        return suffixes

    def gate_entries(
        self, table: int, signatures: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batch form of :meth:`gate_suffixes` for a whole corpus.

        ``signatures`` is the ``(n, num_bits)`` semhash matrix (row
        order = record order). Returns two aligned int64 arrays
        ``(entry_rows, suffixes)``, the shape
        :meth:`repro.lsh.index.BandedLSHIndex.add_many` expects:

        * **AND** — ``entry_rows`` are the records with all chosen bits
          set, each under :data:`AND_SUFFIX`.
        * **OR** — one entry per (record, set chosen bit), in the same
          (record-major, ascending bit) order the per-record gate
          produces; ``suffixes`` are the global bit indices.
        """
        chosen = np.asarray(self._chosen[table], dtype=np.int64)
        sub = signatures[:, chosen] != 0
        if self.mode == "and":
            entry_rows = np.flatnonzero(sub.all(axis=1)).astype(np.int64)
            return entry_rows, np.full(entry_rows.size, AND_SUFFIX, dtype=np.int64)
        entry_rows, chosen_positions = np.nonzero(sub)
        return entry_rows.astype(np.int64), chosen[chosen_positions]

    def pair_collides(
        self, table: int, sig1: np.ndarray, sig2: np.ndarray
    ) -> bool:
        """Reference pairwise predicate (used to validate the gates).

        AND: every chosen bit set in both; OR: some chosen bit set in
        both — the h_g definitions of §5.2.
        """
        chosen = self._chosen[table]
        if self.mode == "and":
            return all(sig1[i] and sig2[i] for i in chosen)
        return any(sig1[i] and sig2[i] for i in chosen)

    def collision_probability(self, s_prime: float) -> float:
        """Analytic firing probability of one w-way function (Fig. 5)."""
        return wway_collision_probability(s_prime, self.w, self.mode)
