"""The layer boundaries erbench's traced mode wraps still exist.

``erbench/run.py --trace 1`` times each layer by replacing
``owner.__dict__[attribute]`` for every entry of
``erbench/workloads.py``'s ``BOUNDARIES``, so a wrapped method that
moves into a base class makes the traced run fail with a ``KeyError``.
Its bucket-entry counter also reads ``BandedLSHIndex.add_many``'s
``gate_entries`` by position. This guard catches both in the unit
suite.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import pytest

from repro.lsh.index import BandedLSHIndex

ERBENCH = Path(__file__).resolve().parent.parent / "erbench"


@pytest.fixture(scope="module")
def boundaries():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ERBENCH))
        import workloads

    return workloads.BOUNDARIES


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
