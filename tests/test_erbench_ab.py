"""The A/B runner's verdict rule (``tools/erbench_ab.py``) on synthetic
runs: gain, no worse, unresolved and worse, in both directions."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "erbench_ab.py"
_SPEC = importlib.util.spec_from_file_location("erbench_ab", _PATH)
erbench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(erbench_ab)

BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]


def _verdict(change, base=BASE, better="higher", bound=0.25):
    return erbench_ab.compare(base, change, better, bound)["verdict"]


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_base_iqr():
    assert _verdict([b + 10 for b in BASE]) == "gain"
    # Eight wins of ten: a large median gap alone is no gain.
    eight = [b + 10 for b in BASE[:8]] + [b - 10 for b in BASE[8:]]
    assert _verdict(eight) == "no worse"
    # Ten wins, but by less than the base's interquartile range (2.0).
    assert _verdict([b + 0.5 for b in BASE]) == "no worse"


def test_lower_is_better():
    assert _verdict([b - 10 for b in BASE], better="lower") == "gain"
    assert _verdict([b * 1.3 for b in BASE], better="lower") == "worse"


def test_worse_only_past_the_bound():
    assert _verdict([b * 0.7 for b in BASE]) == "worse"
    assert _verdict([b * 0.8 for b in BASE]) == "no worse"
    assert _verdict([b * 0.9 for b in BASE], bound=0.05) == "worse"


def test_unresolved_when_the_spread_exceeds_the_bound():
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    assert _verdict(wide) == "unresolved"
    assert _verdict(BASE, base=wide) == "unresolved"
    # Unless every change run beats every base run: here by less than
    # the skewed base's interquartile range (70), so no gain either.
    skewed = [10.0, 10.0, 10.0, 90.0] + [100.0] * 6
    assert _verdict([101.0] * 10, base=skewed) == "no worse"
    assert _verdict([99.0] * 10, base=skewed) == "unresolved"


def test_ties_count_for_neither():
    summary = erbench_ab.compare(BASE, list(BASE), "higher", 0.1)
    assert (summary["wins"], summary["ties"], summary["verdict"]) == (0, 10, "no worse")


def test_summary_reports_quartiles():
    summary = erbench_ab.compare([1.0, 2.0, 3.0, 4.0, 5.0], [5.0] * 5, "higher", 0.1)
    assert summary["base"] == (2.0, 3.0, 4.0)
    assert summary["change"] == (5.0, 5.0, 5.0)
    assert (summary["wins"], summary["ties"], summary["pairs"]) == (4, 1, 5)


def test_seed_ranges():
    assert erbench_ab.parse_seeds("7-9") == [7, 8, 9]
    assert erbench_ab.parse_seeds("5") == [5]
    with pytest.raises(Exception):
        erbench_ab.parse_seeds("9-7")


def test_mismatched_runs_rejected():
    with pytest.raises(ValueError):
        erbench_ab.compare([1.0], [1.0, 2.0], "higher", 0.1)
