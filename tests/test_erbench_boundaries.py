"""The layer boundaries erbench's traced mode wraps still exist.

``erbench/run.py --trace 1`` times each layer by replacing
``owner.__dict__[attribute]`` for every entry of
``erbench/workloads.py``'s ``BOUNDARIES``, so a wrapped method that
moves into a base class makes the traced run fail with a ``KeyError``.
Its bucket-entry counter also reads ``BandedLSHIndex.add_many``'s
``gate_entries`` by position. This guard catches both in the unit
suite, and checks that the work each blocking layer is named for still
happens inside its boundary: work moved out of a wrapped method reads
as zero time for its layer and lands, unnoticed, in its caller's.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import pytest

from repro.core import SALSHBlocker
from repro.lsh.index import BandedLSHIndex
from repro.records import Dataset, LinkedCorpus
from repro.semantic import VoterSemanticFunction

ERBENCH = Path(__file__).resolve().parent.parent / "erbench"

#: The batch layers a SA-LSH ``block`` and ``block_pair`` pass through.
BLOCKING_LAYERS = (
    "minhash.shingle",
    "minhash.signature",
    "semantic.fit",
    "semantic.encode",
    "semantic.gate",
    "lsh.insert",
    "lsh.group",
)


@pytest.fixture(scope="module")
def erbench():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ERBENCH))
        import spans
        import workloads

    return spans, workloads


@pytest.fixture(scope="module")
def boundaries(erbench):
    return erbench[1].BOUNDARIES


def test_every_boundary_is_defined_on_its_owner(boundaries):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _span, _counter in boundaries
        if attribute not in vars(owner)
    ]
    assert not missing


def test_gate_entries_is_the_fourth_positional_parameter():
    parameters = list(inspect.signature(BandedLSHIndex.add_many).parameters)
    assert parameters[3] == "gate_entries"


def test_blocking_layers_record_time_inside_their_boundaries(erbench, voter_small):
    spans, workloads = erbench
    records = list(voter_small)
    dataset = Dataset(records)
    half = len(records) // 2
    linked = LinkedCorpus(Dataset(records[:half]), Dataset(records[half:]))
    blocker = SALSHBlocker(
        ("first_name", "last_name"), q=2, k=3, l=6,
        semantic_function=VoterSemanticFunction(),
    )

    def unit():
        blocker.block(dataset)
        blocker.block_pair(linked)

    tracer = spans.Tracer()
    with spans.wrapped(tracer, workloads.BOUNDARIES):
        _, _, _, self_times = tracer.call("unit:0", unit)

    assert {layer: self_times.get(layer, 0.0) > 0 for layer in BLOCKING_LAYERS} == {
        layer: True for layer in BLOCKING_LAYERS
    }
    # block() shingles the corpus once, block_pair() each side once.
    shingles = sum(len(blocker.shingler.shingles(record)) for record in records)
    assert tracer.counts["minhash.shingles"] == 2 * shingles
