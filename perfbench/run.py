"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Runs the workload in a child process whose
environment pins the BLAS thread count, and passes its output through; the
last stdout line is the JSON result. --trace 0 prints the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones. Exits non-zero
without a result when the library or its configs are missing.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("tiny_fit", "mixed_fit", "weather_step", "probe_chain")
REQUIRED = ("BENCHMARK.json", "src/pslstm/__init__.py",
            "configs/sinusoid_tiny.json", "configs/weather_extended.json",
            "configs/probe_contraction.json", "configs/probe_amplification.json")
# One BLAS thread: on a small shared machine a second thread adds more
# run-to-run spread than speed. Recorded in every result's machine line.
BLAS_THREADS = 1
TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the smoke test only")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: missing from {ROOT}: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    with subprocess.Popen(cmd, cwd=ROOT, env=env) as child:
        try:
            return child.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"perfbench: worker exceeded {TIMEOUT_S}s", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
