"""hiREP end-to-end benchmark: one workload per invocation.

Usage, from the repository root::

    python3 hibench/run.py --workload sim-object --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the job
once untraced and once with every layer boundary wrapped, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run
also appends its metrics as a ``repro.perf.PerfReport`` row to
``hibench/out/history`` (read it with ``hirep-perf trend --history
hibench/out/history``).  Workloads are described in ``hibench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Native thread pools would compete for the host's few cores.
_SINGLE_THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("sim-object", "sim-array", "serve-open")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    for name in _SINGLE_THREAD_ENV:
        os.environ[name] = "1"  # before numpy is first imported
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from hibench import bench
        from hibench.layers import PER_LAYER
        from repro.perf import PerfHistory, PerfReport
    except ImportError as exc:
        print(f"hibench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    units = dict(PER_LAYER if args.trace else bench.END_TO_END)
    spec = bench.WORKLOADS[args.workload]
    PerfHistory(OUT_DIR / "history").record(
        PerfReport(
            suite=f"hibench-{args.workload}" + ("-trace" if args.trace else ""),
            metrics=result.metrics,
            network_size=spec.network_size,
            opts={"seed": args.seed, "seconds": args.seconds, **result.info},
            scale="hibench",
        )
    )

    for note in result.notes:
        print(f"# {note}")
    for name, unit in units.items():
        print(f"{name:32s} {result.metrics[name]:>16.6g} {unit}")
    for error in result.errors:
        print(f"hibench: check failed: {error}", file=sys.stderr)
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(line, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
