"""Smoke tests keeping the example scripts runnable.

Each example is executed as a subprocess (as a user would run it); the
slow corpus-scale walkthroughs are exercised with reduced inputs or
skipped unless REPRO_RUN_SLOW_EXAMPLES is set.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def test_quickstart_runs_and_removes_r1_r4():
    result = run_example("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "SA-LSH removed" in result.stdout
    assert "B3" in result.stdout


def test_custom_taxonomy_runs():
    result = run_example("custom_taxonomy.py")
    assert result.returncode == 0, result.stderr
    assert "Product catalogue" in result.stdout


def test_compare_baselines_small():
    result = run_example("compare_baselines.py", "--records", "400")
    assert result.returncode == 0, result.stderr
    assert "SA-LSH" in result.stdout
    assert "TBlo" in result.stdout


@pytest.mark.skipif(
    not os.environ.get("REPRO_RUN_SLOW_EXAMPLES"),
    reason="slow example; set REPRO_RUN_SLOW_EXAMPLES=1 to run",
)
def test_publications_dedup_full():
    result = run_example("publications_dedup.py")
    assert result.returncode == 0, result.stderr
    assert "SA-LSH" in result.stdout


@pytest.mark.skipif(
    not os.environ.get("REPRO_RUN_SLOW_EXAMPLES"),
    reason="slow example; set REPRO_RUN_SLOW_EXAMPLES=1 to run",
)
def test_voter_dedup_full():
    result = run_example("voter_dedup.py")
    assert result.returncode == 0, result.stderr
    assert "w-way OR" in result.stdout


def test_end_to_end_resolution_runs():
    result = run_example("end_to_end_resolution.py")
    assert result.returncode == 0, result.stderr
    assert "resolution quality" in result.stdout


def test_streaming_spill_runs():
    # Reduced corpus; the script asserts streamed-vs-batch block
    # identity internally.
    result = run_example("streaming_spill.py", "800")
    assert result.returncode == 0, result.stderr
    assert "identical to batch blocks" in result.stdout
