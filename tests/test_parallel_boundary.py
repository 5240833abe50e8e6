"""One parallel path: a caller-held ``ShardPool`` maps signature slabs.

A blocker runs in parallel only through the :class:`~repro.utils.
parallel.ShardPool` its caller hands it as ``pool=``, and only its
``block()`` maps on it (the record-slab signature pass of
:mod:`repro.lsh.sharding`). So (a) no LSH blocker, ``PipelineConfig``,
``BandedLSHIndex`` or slab function takes a ``processes`` count that
could pick a second path, (b) ``BandedLSHIndex`` takes no ``pool``,
because buckets are always grouped in the calling process, and (c) the
helpers of the removed per-call and band-sharded paths stay gone.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.core import (
    LSHBlocker,
    LSHForestBlocker,
    MultiProbeLSHBlocker,
    SALSHBlocker,
)
from repro.core.base import LSHFamilyBlocker
from repro.core.pipeline import PipelineConfig
from repro.lsh import sharding
from repro.lsh.index import BandedLSHIndex
from repro.semantic.semhash import SemhashEncoder
from repro.utils import parallel

BLOCKERS = (
    LSHFamilyBlocker,
    LSHBlocker,
    SALSHBlocker,
    MultiProbeLSHBlocker,
    LSHForestBlocker,
)


def _functions(owner):
    """(name, function) of a class's methods or a module's functions."""
    if inspect.isclass(owner):
        return inspect.getmembers(owner, inspect.isfunction)
    return [
        (name, member)
        for name, member in inspect.getmembers(owner, inspect.isfunction)
        if member.__module__ == owner.__name__
    ]


def _taking(owner, parameter: str) -> list[str]:
    return [
        f"{owner.__name__}.{name}"
        for name, function in _functions(owner)
        if parameter in inspect.signature(function).parameters
    ]


@pytest.mark.parametrize(
    "owner", BLOCKERS + (BandedLSHIndex, sharding), ids=lambda o: o.__name__
)
def test_no_processes_parameter(owner):
    assert _taking(owner, "processes") == []


def test_pipeline_config_has_no_processes_field():
    names = {field.name for field in dataclasses.fields(PipelineConfig)}
    assert "processes" not in names
    assert "pool" in names


def test_banded_index_takes_no_pool():
    assert _taking(BandedLSHIndex, "pool") == []
    assert list(inspect.signature(BandedLSHIndex).parameters) == ["num_tables"]


@pytest.mark.parametrize(
    "owner,name",
    [
        (parallel, "map_processes"),
        (parallel, "effective_processes"),
        (sharding, "group_tables_sharded"),
        (sharding, "_segment_shard"),
        (sharding, "semantic_signature_slabs"),
        (sharding, "_semantic_slab"),
        (SemhashEncoder, "from_interpretations"),
    ],
)
def test_removed_paths_stay_gone(owner, name):
    assert not hasattr(owner, name)
