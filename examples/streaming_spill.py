#!/usr/bin/env python
"""Streaming SA-LSH with a growable signature spill, end to end.

Walks two pieces on one corpus (DESIGN.md, "Streams of unknown
length"):

1. freeze a semantic encoder from a 10% training sample
   (``SemhashEncoder.fit``) and stream SA-LSH over record slabs of
   *unknown* length — a plain generator, no ``len()`` — with the
   growable signature spill;
2. verify the equivalence configuration: an encoder frozen from the
   full corpus streams to blocks byte-identical to the in-memory
   batch engine.

Run:  python examples/streaming_spill.py [num_records]
"""

import sys
import tempfile
from pathlib import Path

from repro.core import SALSHBlocker
from repro.datasets import NCVoterLikeGenerator
from repro.evaluation import evaluate_blocks
from repro.minhash import GrowableSignatureSpill
from repro.semantic import SemhashEncoder, VoterSemanticFunction

ATTRIBUTES = ("first_name", "last_name")
SLAB = 500


def record_stream(records):
    """A generator of record slabs — deliberately without a length."""
    for lo in range(0, len(records), SLAB):
        yield iter(records[lo : lo + SLAB])


def main():
    num_records = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    dataset = NCVoterLikeGenerator(num_records=num_records, seed=13).generate()
    records = list(dataset)
    print(f"registry: {len(records)} records, "
          f"{dataset.num_true_matches} duplicate pairs\n")

    def make_blocker():
        return SALSHBlocker(
            ATTRIBUTES, q=2, k=9, l=15, seed=3,
            semantic_function=VoterSemanticFunction(), w=2, mode="or",
        )

    reference = make_blocker().block(dataset)
    print(f"batch (in-memory):    {reference.num_blocks} blocks, "
          f"{evaluate_blocks(reference, dataset)}")

    with tempfile.TemporaryDirectory() as spill_dir:
        # 1. Sample-frozen encoder + unknown-length stream + growable
        #    spill: SA-LSH without the corpus (or its length) in hand.
        sample = SemhashEncoder.fit(
            VoterSemanticFunction(), records[: len(records) // 10]
        )
        spill = GrowableSignatureSpill(
            Path(spill_dir) / "signatures.npy", 9 * 15
        )
        streamed = make_blocker().block_stream(
            record_stream(records), encoder=sample, signatures_out=spill
        )
        matrix = spill.finalize()
        print(f"streamed (10% fit):   {streamed.num_blocks} blocks, "
              f"{evaluate_blocks(streamed, dataset)}")
        print(f"  spilled signatures: {matrix.shape} on disk, "
              f"{streamed.metadata['num_slabs']} slabs, "
              f"{sample.num_bits} semantic bits")

        # 2. Frozen from the full corpus, streaming is byte-identical.
        frozen = SemhashEncoder(VoterSemanticFunction(), dataset)
        replay = make_blocker().block_stream(
            record_stream(records), encoder=frozen
        )
        assert replay.blocks == reference.blocks
        print("streamed (full fit):  identical to batch blocks")


if __name__ == "__main__":
    main()
