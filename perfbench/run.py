"""LimeQO end-to-end benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_read --seed 3 --seconds 12 --trace 0

Workloads: explore_als, explore_tcnn, serve_read, serve_feedback (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics
with nothing instrumented; ``--trace 1`` runs the same work untraced, then
again with every layer call traced, and reports the per-layer breakdown.
Either way the run checks the program's outputs, prints a table of the
workload's figures, and ends with one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

A failed correctness check makes the exit code 1.  Spans of a traced run
and WAL segments go under ``.perfbench-out/`` (removed again, except the
span file); nothing else in the checkout is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile

# One BLAS thread: the benchmark is one process on one event loop, and a
# second BLAS thread only adds scheduling noise (it is no faster here).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("explore_als", "explore_tcnn", "serve_read", "serve_feedback")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="fraction of the Table-1 row counts (the smoke test uses tiny sizes)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or not 0 < args.scale <= 1:
        parser.error("--seconds must be > 0 and --scale in (0, 1]")
    return args


def run(args, work_dir: str):
    import explore
    import serve

    traced = bool(args.trace)
    if args.workload.startswith("explore"):
        return explore.run(args.workload, args.seed, args.seconds, args.scale, traced)
    if args.workload == "serve_read":
        return serve.run_read(args.seed, args.seconds, args.scale, traced, work_dir)
    return serve.run_feedback(args.seed, args.seconds, args.scale, traced, work_dir)


def _format(value: float) -> str:
    return f"{value:.6g}" if math.isfinite(value) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from metrics import END_TO_END, PER_LAYER

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        out = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_checks = sorted(name for name, ok in out.checks.items() if not ok)
    attempted = out.attempted + len(out.checks)
    failed = out.failed + len(failed_checks)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"{'metric':<32} {'value':>14} {'unit':<8} samples")
    for name, value, unit, samples in out.report:
        print(f"{name:<32} {_format(value):>14} {unit:<8} {samples}")
    print(f"{'failed_share':<32} {_format(failed / attempted):>14} {'share':<8} {attempted}")
    for name in failed_checks:
        print(f"CHECK FAILED: {name}")

    if args.trace:
        if out.recorder is not None:
            out.recorder.write(
                os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
            )
        values, units = out.layers, PER_LAYER
    else:
        values, units = out.metrics, END_TO_END
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    result = {
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failed_checks else 1


if __name__ == "__main__":
    sys.exit(main())
