"""Banded locality-sensitive hashing (paper §5.1 step 3, §5.2)."""

from repro.lsh.family import SensitivityParams, amplify_sensitivity
from repro.lsh.bands import (
    record_band_keys,
    split_bands,
    split_bands_matrix,
)
from repro.lsh.index import BandedLSHIndex, grouped_indices
from repro.lsh.collision import (
    banded_collision_probability,
    salsh_collision_probability,
    wway_collision_probability,
)

__all__ = [
    "SensitivityParams",
    "amplify_sensitivity",
    "split_bands",
    "split_bands_matrix",
    "record_band_keys",
    "BandedLSHIndex",
    "grouped_indices",
    "banded_collision_probability",
    "wway_collision_probability",
    "salsh_collision_probability",
]
