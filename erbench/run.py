"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 erbench/run.py --workload dedup --seed 1 --seconds 20 --trace 0

Workloads: ``dedup``, ``link``, ``serve`` (see ``erbench/README.md``).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with layer wrappers installed and prints the per-layer
metrics instead. Metric names and units come from ``BENCHMARK.json``.

Output: one line per metric (value, unit, sample count), then a JSON
run record (host, versions, seed, sample counts, digests, serve
latencies), then, as the last line, the JSON result
``{"correct", "attempted", "failed", "metrics"}``. A wrong output exits
1; a checkout without the library source exits 2 without a result.
Traces and the serve state directory go to ``.erbench-runs/``.
"""

import os
import time

_START = time.perf_counter()
# One caller, one thread: keep numpy's BLAS pool from starting threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".erbench-runs"
UNMEASURED = (
    "utils.parallel (workers=, processes=, ShardPool), store.index_file, "
    "baselines and cli are unmeasured: every workload runs the default "
    "serial configuration, so no multi-core figure is reported"
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("dedup", "link", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"erbench: library source {source} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import workloads
    from checks import CheckFailed

    # CPU seconds of interpreter start-up and imports; the workload
    # scales them to reference seconds like the rest of its set-up.
    import_s = time.process_time()
    import_wall_s = time.perf_counter() - _START
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    try:
        result = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), import_s, OUT_DIR
        )
    except CheckFailed as exc:
        print(f"erbench: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    measured = dict(result.per_layer if args.trace else result.end_to_end)
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    undeclared = sorted(set(measured) - set(declared))
    not_applicable = sorted(set(declared) - set(measured))
    if undeclared or (not_applicable and not args.trace):
        print(
            f"erbench: metrics out of step with BENCHMARK.json: undeclared "
            f"{undeclared}, unmeasured {not_applicable}",
            file=sys.stderr,
        )
        return 3
    # Per-layer metrics of layers this workload never crosses read 0.
    metrics = {
        name: {"value": measured.get(name, 0.0), "unit": unit}
        for name, unit in declared.items()
    }
    for name, entry in metrics.items():
        count = result.samples.get(name) or result.samples[
            "per_layer_times" if entry["unit"] in ("s", "ms") else "per_layer_counts"
        ]
        print(f"{name:32s} {entry['value']:>14.6g} {entry['unit']:8s} n={count}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "samples": result.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "not_applicable": not_applicable,
        "unmeasured": UNMEASURED,
        "import_wall_s": import_wall_s,
        **result.record,
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
