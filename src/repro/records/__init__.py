"""Record and dataset model with ground-truth bookkeeping."""

from repro.records.record import Record
from repro.records.blocks import Block, BlockList
from repro.records.dataset import Dataset, LinkedCorpus, RecordStore
from repro.records.ground_truth import (
    entity_clusters,
    sorted_pair,
    true_match_pairs,
)
from repro.records.io import (
    read_csv,
    read_linked_csv,
    read_pairs_csv,
    write_csv,
    write_linked_csv,
    write_pairs_csv,
)
from repro.records.pairs import (
    decode_pair_keys,
    encode_pair_keys,
    enumerate_csr_cross_pairs,
    enumerate_csr_pairs,
    pairs_from_keys,
    unique_pair_keys,
)

__all__ = [
    "Record",
    "Block",
    "BlockList",
    "Dataset",
    "LinkedCorpus",
    "RecordStore",
    "sorted_pair",
    "true_match_pairs",
    "entity_clusters",
    "encode_pair_keys",
    "decode_pair_keys",
    "pairs_from_keys",
    "enumerate_csr_pairs",
    "enumerate_csr_cross_pairs",
    "unique_pair_keys",
    "read_csv",
    "write_csv",
    "read_linked_csv",
    "write_linked_csv",
    "read_pairs_csv",
    "write_pairs_csv",
]
