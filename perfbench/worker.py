"""Benchmark worker: runs one workload and prints the result.

Started by run.py in a child process whose environment fixes the BLAS
thread count. The last stdout line is the JSON result; the lines before it
are a human-readable report (machine, metrics by name and unit, checks).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from layers import layer_metrics, trace_targets
from proxy import SpeedProbe
from workloads import WORKLOADS, Tally

ROOT = Path(__file__).resolve().parent.parent
# Set-ups before every unit. Spreading set-ups over the run exposes them to
# the same host-speed phases as the units, instead of to one moment.
SETUPS_PER_UNIT = 10


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


class Phase:
    """Set-up and unit wall times of one stretch of a run."""

    def __init__(self):
        self.setups: list[float] = []
        self.units: list[float] = []


def run_phase(work, tally: Tally, seconds: float, tracer=None) -> Phase:
    """Repeat (SETUPS_PER_UNIT set-ups, one unit) until the next round
    would end past `seconds`; at least one round."""
    phase = Phase()
    setup, unit = work.setup, work.unit
    if tracer is not None:
        setup = tracer.wrap(setup, "bench.setup")
        unit = tracer.wrap(unit, "bench.unit")
    rounds: list[float] = []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start
                         + statistics.median(rounds) <= seconds):
        t_round = time.perf_counter()
        for _ in range(SETUPS_PER_UNIT):
            t0 = time.perf_counter()
            setup()
            phase.setups.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        unit(tally)
        phase.units.append(time.perf_counter() - t0)
        rounds.append(time.perf_counter() - t_round)
    return phase


def pooled_rate(samples) -> float:
    """All items over all seconds: averages over the host's speed phases,
    where a per-sample median would snap to one of them."""
    return sum(s.items for s in samples) / sum(s.seconds for s in samples)


def end_to_end(work, tally: Tally, phase: Phase, speed: SpeedProbe) -> dict:
    """End-to-end metrics, printed first under the workload's own names.
    Throughputs are rescaled to the reference host speed."""
    metrics = {}
    for label, key, samples in (
            (work.main_label, "throughput_per_s", tally.main),
            (work.forward_label, "forward_only_per_s", tally.forward)):
        wall, factor = pooled_rate(samples), speed.factor(samples)
        metrics[key] = wall * factor
        print(f"{label} = {metrics[key]:.6g} 1/s at reference host speed, "
              f"{wall:.6g} 1/s wall clock, proxy {factor:.6g} x reference "
              f"({key}; {len(samples)} samples pooled)")
    if work.name == "weather_step":
        step_ms = [1e3 * s.seconds for s in tally.main]
        print(f"train_step_ms_p50 = {statistics.median(step_ms):.6g} ms "
              f"(n={len(step_ms)} steps)")
    wall, factor = statistics.median(phase.setups), speed.factor()
    metrics["setup_s"] = wall / factor
    print(f"setup_s = {metrics['setup_s']:.6g} s at reference host speed, "
          f"{wall:.6g} s wall clock, proxy {factor:.6g} x reference "
          f"(median of {len(phase.setups)} set-ups)")
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    work = WORKLOADS[args.workload](args.seed, args.smoke)
    tally = Tally()
    if work.WARM_UP:
        work.setup()
        work.step()

    if not args.trace:
        with SpeedProbe(**work.PROXY) as speed:
            phase = run_phase(work, tally, args.seconds)
        values = end_to_end(work, tally, phase, speed)
        wanted = spec["end_to_end"]
    else:
        plain = run_phase(work, tally, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracing.install(tracer, trace_targets()):
            traced = run_phase(work, tally, args.seconds / 2, tracer)
        overhead = 100.0 * (statistics.median(traced.units)
                            / statistics.median(plain.units) - 1.0)
        values = layer_metrics(tracer.summary(), len(traced.units),
                               len(traced.setups), overhead)
        for key, value in values.items():
            print(f"{key} = {value:.6g}")
        wanted = spec["per_layer"]

    for key, outputs in tally.outputs.items():
        print(f"{key} = {outputs[-1]!r}")
    print(f"error_rate = {tally.failed}/{tally.attempted}")
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        raise KeyError(f"metrics computed {sorted(values)} "
                       f"differ from BENCHMARK.json {sorted(names)}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                      "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
