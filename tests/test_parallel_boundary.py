"""One serial batch path: the process pool stays gone.

Blocking runs in the calling process. ``block()`` is
``online(D).blocks()`` on every LSH blocker, and nothing maps work
onto worker processes (DESIGN.md, "No process or thread runtime"). So
(a) the pool's modules do not import, (b) no blocker,
``PipelineConfig``, ``BandedLSHIndex`` or ``Resolver`` takes a ``pool``
or a ``processes`` count, (c) the only fault points left are the
spill's and the durability layer's, (d) the helpers of the removed
paths stay gone — the fixed-size signature memmap, the
compute/insert split of the online indexes, and the dataset-role axis
and bipartite codec linkage no longer needs, among them — and (e)
importing the CLI loads no process machinery.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli, errors, metablocking, minhash, records
from repro.core import (
    LSHBlocker,
    LSHForestBlocker,
    MultiProbeLSHBlocker,
    SALSHBlocker,
)
from repro.core import base
from repro.core.base import BlockingResult, LSHFamilyBlocker
from repro.core.lsh_blocker import OnlineLSHIndex
from repro.core.lsh_variants import OnlineForestIndex, OnlineMultiProbeIndex
from repro.core.salsh_blocker import OnlineSALSHIndex
from repro.core.pipeline import PipelineConfig
from repro.er import Resolver
from repro.lsh.index import BandedLSHIndex
from repro.minhash import MinHasher, signature
from repro.records import Dataset, LinkedCorpus, Record, dataset, pairs
from repro.records.pairs import ArrayBlockingGraph
from repro.semantic.semhash import SemhashEncoder
from repro.store import checkpoint
from repro.utils import faults

_SRC = str(Path(__file__).resolve().parents[1] / "src")

BLOCKERS = (
    LSHFamilyBlocker,
    LSHBlocker,
    SALSHBlocker,
    MultiProbeLSHBlocker,
    LSHForestBlocker,
)


def _taking(owner, parameter: str) -> list[str]:
    """Methods (classmethods included) of ``owner`` taking ``parameter``."""
    return [
        f"{owner.__name__}.{name}"
        for name, member in inspect.getmembers(owner)
        if (inspect.isfunction(member) or inspect.ismethod(member))
        and parameter in inspect.signature(member).parameters
    ]


@pytest.mark.parametrize(
    "module", ["repro.utils.parallel", "repro.utils.retry", "repro.lsh.sharding"]
)
def test_removed_modules_do_not_import(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


@pytest.mark.parametrize(
    "owner", BLOCKERS + (BandedLSHIndex, Resolver), ids=lambda o: o.__name__
)
def test_no_processes_parameter(owner):
    assert _taking(owner, "processes") == []


@pytest.mark.parametrize("owner", BLOCKERS + (Resolver,), ids=lambda o: o.__name__)
def test_no_pool_parameter(owner):
    assert _taking(owner, "pool") == []


def test_pipeline_config_has_no_processes_field():
    names = {field.name for field in dataclasses.fields(PipelineConfig)}
    assert "processes" not in names
    assert "pool" not in names


def test_banded_index_takes_no_pool():
    assert _taking(BandedLSHIndex, "pool") == []
    assert list(inspect.signature(BandedLSHIndex).parameters) == ["num_tables"]


def test_fault_points_are_the_spill_and_durability_ones():
    assert faults.POINTS == ("spill.write_error", "wal.append", "checkpoint.rename")


@pytest.mark.parametrize(
    "owner,name",
    [
        (SemhashEncoder, "from_interpretations"),
        (LSHFamilyBlocker, "_slab_pass"),
        (LSHFamilyBlocker, "_processes"),
        (SALSHBlocker, "_pooled_index"),
        (errors, "PoolBrokenError"),
        (faults, "execute_worker_fault"),
        (faults, "HANG_SECONDS"),
        (signature, "slab_integrity_enabled"),
        (checkpoint, "_pickle_without_pool"),
        (cli, "_pool_context"),
        (signature, "open_signature_memmap"),
        (signature, "SignatureMatrix"),
        (signature, "build_signature_matrix"),
        (minhash, "open_signature_memmap"),
        (minhash, "SignatureMatrix"),
        (minhash, "build_signature_matrix"),
        (OnlineLSHIndex, "add_signatures"),
        (OnlineSALSHIndex, "add_signatures"),
        (OnlineMultiProbeIndex, "add_signatures"),
        (OnlineForestIndex, "add_signatures"),
        (metablocking, "build_array_graph"),
        (base, "BlockArrays"),
        (BlockingResult, "local_arrays"),
        (BlockingResult, "pair_keys_local"),
        (ArrayBlockingGraph, "record_block_offsets"),
        (dataset, "DATASET_ROLES"),
        (records, "DATASET_ROLES"),
        (Dataset, "with_role"),
        (pairs, "encode_bipartite_keys"),
        (pairs, "unique_bipartite_keys"),
        (records, "encode_bipartite_keys"),
        (records, "unique_bipartite_keys"),
        (LinkedCorpus, "pairs_from_keys"),
        (LinkedCorpus, "side_of"),
        (LinkedCorpus, "source_id_set"),
    ],
    ids=lambda o: getattr(o, "__name__", o),
)
def test_removed_paths_stay_gone(owner, name):
    assert not hasattr(owner, name)


def test_dataset_takes_no_role():
    with pytest.raises(TypeError):
        Dataset([Record("a", {"t": "x"})], role="source")
    assert not hasattr(Dataset([]), "role")


def test_signature_matrix_takes_no_out_buffer():
    assert "out" not in inspect.signature(MinHasher.signature_matrix).parameters


def test_importing_the_cli_loads_no_process_machinery():
    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
        "if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
