"""A/B runner for the repository benchmark: a base commit against this
checkout.

Usage, from anywhere inside the repository::

    python3 tools/erbench_ab.py --base HEAD~1 --workload serve --seeds 2001-2010

``--seconds`` defaults to 25, the run length ``BENCHMARK.json`` sets.
The base commit is extracted with ``git archive`` into a temporary
directory; ``erbench/run.py`` then runs on both trees once per seed,
alternating which side goes first (the base on even pair indices, the
checkout on odd ones), with the same seed and settings on both sides.

It prints each run as it finishes (with ``serve``'s read and write
latency percentiles from the run record), then, per end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles, the checkout's
wins and ties over the pairs, and a verdict from the metric's
``better`` and ``bound`` (a share of the base median):

* ``gain`` — the checkout wins at least nine tenths of the pairs (ties
  count for neither) and its median beats the base's by more than the
  base's interquartile range;
* ``worse`` — the checkout's median is worse than the base's by more
  than the bound;
* ``unresolved`` — either side's interquartile range is wider than the
  bound, unless every checkout run beats every base run;
* ``no worse`` — otherwise.

Last, per seed, whether both sides produced equal output digests (the
run record's ``answers_digest`` for ``serve``, the first-unit block and
cluster digests for ``dedup`` and ``link``) and each side's correct and
failed counts. Nothing under ``erbench/`` is changed; the exit status is
1 when a run was incorrect or digests differ, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
#: Share of the pairs the change must win to claim a gain.
GAIN_WIN_SHARE = 0.9


def parse_seeds(text: str) -> list[int]:
    """``"A-B"`` (inclusive) or a single ``"A"``."""
    first, _, last = text.partition("-")
    lo, hi = int(first), int(last or first)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(
    base: list[float], change: list[float], better: str, bound: float
) -> dict:
    """Summary and verdict of one metric over paired runs.

    ``base[i]`` and ``change[i]`` come from the same seed. ``better`` is
    ``"higher"`` or ``"lower"``; ``bound`` is the share of the base
    median by which the change may worsen.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same, non-zero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    gaps = [sign * (c - b) for b, c in zip(base, change)]
    wins = sum(gap > 0 for gap in gaps)
    ties = sum(gap == 0 for gap in gaps)
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    scale = abs(b_med) or 1.0
    gain = sign * (c_med - b_med)
    if wins >= GAIN_WIN_SHARE * len(gaps) and gain > b_q3 - b_q1:
        verdict = "gain"
    elif -gain > bound * scale:
        verdict = "worse"
    elif max(b_q3 - b_q1, c_q3 - c_q1) > bound * scale and not (
        min(sign * c for c in change) > max(sign * b for b in base)
    ):
        verdict = "unresolved"
    else:
        verdict = "no worse"
    return {
        "base": (b_q1, b_med, b_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "ties": ties,
        "pairs": len(gaps),
        "verdict": verdict,
    }


def run_digest(workload: str, record: dict):
    """The output digest a run record carries for its workload."""
    if workload == "serve":
        return record.get("answers_digest")
    return record.get("first_unit_digests")


def run_erbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``erbench/run.py`` run in ``tree``, parsed."""
    proc = subprocess.run(
        [sys.executable, "erbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"{tree}: erbench exited {proc.returncode} without a result:\n"
            f"{proc.stderr[-2000:]}"
        ) from None
    record = {}
    if len(lines) > 1 and lines[-2].startswith('{"run_record"'):
        record = json.loads(lines[-2])["run_record"]
    return {
        "correct": bool(result.get("correct")) and proc.returncode == 0,
        "failed": result.get("failed", 0),
        "metrics": {
            name: entry["value"] for name, entry in result["metrics"].items()
        },
        "digest": run_digest(workload, record),
        "latency": record.get("latency", {}),
    }


def extract(ref: str, dest: Path) -> None:
    """``git archive <ref>`` unpacked into ``dest``."""
    archive = subprocess.Popen(
        ["git", "archive", ref], cwd=ROOT, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {ref!r} failed")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(workload: str, seeds: list[int], runs: dict, spec: dict) -> int:
    """Print the per-metric summary and per-seed checks; the exit status."""
    print(f"\n{workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}")
    print(f"{'metric':18s} {'base q1/med/q3':>30s} {'change q1/med/q3':>30s} "
          f"{'wins':>5s} {'ties':>5s}  verdict")
    status = 0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if any(name not in run["metrics"] for side in SIDES for run in runs[side]):
            print(f"{name:18s} missing from a run that printed no metrics")
            status = 1
            continue
        summary = compare(
            [run["metrics"][name] for run in runs["base"]],
            [run["metrics"][name] for run in runs["change"]],
            metric["better"], metric["bound"],
        )
        print(
            f"{name:18s} {'/'.join(map(_fmt, summary['base'])):>30s} "
            f"{'/'.join(map(_fmt, summary['change'])):>30s} "
            f"{summary['wins']:>2d}/{summary['pairs']:<2d} {summary['ties']:>5d}  "
            f"{summary['verdict']} (bound {metric['bound']}, {metric['better']} is better)"
        )
    print(f"\n{'seed':>6s}  digests  base correct/failed  change correct/failed")
    for i, seed in enumerate(seeds):
        base, change = runs["base"][i], runs["change"][i]
        same = base["digest"] == change["digest"]
        if not (same and base["correct"] and change["correct"]):
            status = 1
        print(
            f"{seed:>6d}  {'equal' if same else 'DIFFER':7s}  "
            f"{str(base['correct']):>7s}/{base['failed']:<11d}  "
            f"{str(change['correct']):>7s}/{change['failed']}"
        )
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    args = parser.parse_args(argv)
    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="erbench-ab-") as tmp:
        base_tree = Path(tmp)
        extract(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                run = run_erbench(trees[side], args.workload, seed, args.seconds)
                runs[side].append(run)
                shown = dict(run["metrics"])
                shown.update(
                    (name, value) for name, value in run["latency"].items()
                    if name.endswith("_ms") and value is not None
                )
                values = " ".join(
                    f"{name}={_fmt(value)}" for name, value in shown.items()
                )
                print(
                    f"seed {seed} {side:6s} {'first ' if position == 0 else 'second'} "
                    f"correct={run['correct']} failed={run['failed']} {values}",
                    flush=True,
                )
    return report(args.workload, args.seeds, runs, spec)


if __name__ == "__main__":
    sys.exit(main())
