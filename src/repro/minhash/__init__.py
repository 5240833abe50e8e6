"""Minhash signatures over q-gram shingles (paper Section 5.1)."""

from repro.minhash.corpus import ShingledCorpus, ShingleVocabulary
from repro.minhash.shingling import Shingler
from repro.minhash.minhash import MinHasher
from repro.minhash.signature import GrowableSignatureSpill

__all__ = [
    "ShingledCorpus",
    "ShingleVocabulary",
    "Shingler",
    "MinHasher",
    "GrowableSignatureSpill",
]
