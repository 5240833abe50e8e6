#!/usr/bin/env python
"""Streaming SA-LSH and the pooled signature map end to end.

Walks three pieces on one corpus (DESIGN.md, "Process-sharded
streaming runtime"):

1. freeze a semantic encoder from a 10% training sample
   (``SemhashEncoder.fit``) and stream SA-LSH over record slabs of
   *unknown* length — a plain generator, no ``len()`` — with the
   growable signature spill;
2. verify the equivalence configuration: an encoder frozen from the
   full corpus streams to blocks byte-identical to the in-memory
   batch engine;
3. block on a caller-held ``ShardPool`` of two processes: each worker
   shingles and minhashes one record slab, the parent does the rest,
   and the blocks equal the serial ones exactly. A warm repeat reuses
   the pool's executor, its interned record slabs and the memoised
   semantic encoder.

Run:  python examples/streaming_sharded.py [num_records]
"""

import sys
import tempfile
import time
from pathlib import Path

from repro.core import SALSHBlocker
from repro.datasets import NCVoterLikeGenerator
from repro.evaluation import evaluate_blocks
from repro.minhash import GrowableSignatureSpill
from repro.semantic import SemhashEncoder, VoterSemanticFunction
from repro.utils import ShardPool

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

    # One shared semantic-function instance: the pool's SA-LSH memo is
    # keyed by it, so repeated pooled calls below reuse the derived
    # encoder instead of re-interpreting the corpus.
    semantic_function = VoterSemanticFunction()

    def make_blocker(**kw):
        return SALSHBlocker(
            ATTRIBUTES, q=2, k=9, l=15, seed=3,
            semantic_function=semantic_function, w=2, mode="or", **kw,
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

    # 3. A caller-held shard pool: signature slabs off the GIL, blocks
    #    identical; the warm repeat reuses the executor, the interned
    #    record slabs and the memoised encoder.
    with ShardPool(processes=2) as pool:
        first = make_blocker(pool=pool).block(dataset)  # forks + interns
        start = time.perf_counter()
        repeat = make_blocker(pool=pool).block(dataset)
        warm_seconds = time.perf_counter() - start
    assert first.blocks == repeat.blocks == reference.blocks
    print(f"pooled (processes=2): identical to batch blocks "
          f"(engine={repeat.metadata['engine']}), warm repeat "
          f"{warm_seconds:.3f}s vs {reference.seconds:.3f}s serial")

if __name__ == "__main__":
    main()
