"""Smoke test of the benchmark: every workload at reduced size, untraced
and traced, emits exactly the metrics BENCHMARK.json names. No timing is
asserted.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from run import WORKLOADS  # noqa: E402


def _run(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    out = _run(ROOT, workload, trace, "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("machine: ")
    machine = json.loads(lines[0].split(": ", 1)[1])
    assert 1 <= machine["blas_threads"] <= machine["nproc"]
    result = json.loads(lines[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0


def test_listed_workloads_exist():
    import workloads
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_untraced_run_installs_no_wrappers(monkeypatch, capsys):
    import tracing
    import worker

    def refuse(*args, **kwargs):
        raise AssertionError("untraced run tried to install wrappers")

    monkeypatch.setattr(tracing, "install", refuse)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert worker.main(["--workload", "probe_chain", "--seed", "0",
                        "--seconds", "0.1", "--trace", "0", "--smoke"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"]


def test_wrappers_are_removed_after_tracing():
    import tracing
    from layers import trace_targets
    from pslstm import cells, model, probe

    originals = (cells.slstm_step, probe.slstm_step, model.slstm_forward,
                 model.Forecaster.forward)
    tracer = tracing.Tracer()
    with tracing.install(tracer, trace_targets()):
        assert probe.slstm_step is not originals[1]
        assert model.Forecaster.forward is not originals[3]
    assert (cells.slstm_step, probe.slstm_step, model.slstm_forward,
            model.Forecaster.forward) == originals


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "tiny_fit", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
