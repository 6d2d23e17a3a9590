"""The four benchmark workloads, driven only through pslstm's public API.

Each workload builds its inputs and a fresh model or chain from the harness
seed in ``setup``, and ``unit`` runs one unit of work on them. The worker
sets up again before every unit, so every unit does identical, seeded work:
per-unit counts repeat exactly and outputs must match bit for bit. Library
functions are looked up through their module at call time, so the tracer's
wrappers see every call the benchmark makes.

``smoke=True`` shrinks every size so the smoke test finishes in seconds;
timings from a smoke run mean nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from pslstm import cli, model, probe, training
from pslstm.tensorops import Rng

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


class CheckFailed(Exception):
    """An output of the library failed one of the benchmark's checks."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclasses.dataclass
class Sample:
    items: float
    seconds: float
    start: float          # perf_counter() when the sample began


class Tally:
    """Operations attempted and failed, plus the timing samples of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.main: list[Sample] = []      # throughput_per_s samples
        self.forward: list[Sample] = []   # forward_only_per_s samples
        self.outputs: dict[str, list[float]] = {}

    @contextlib.contextmanager
    def operation(self, label: str):
        """One checked call into the library; a raise counts as a failure
        and the run goes on with the next operation."""
        self.attempted += 1
        try:
            yield
        except Exception:  # report every failure, keep measuring
            self.failed += 1
            print(f"operation {label} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def record_repeatable(self, key: str, value: float) -> None:
        """Record an output that every identical, seeded unit must
        reproduce bit for bit."""
        values = self.outputs.setdefault(key, [])
        values.append(float(value))
        check(values[-1] == values[0],
              f"{key} differs between identical units: {values}")


class Workload:
    """Inputs come from `seed` alone. PROXY gives the host-speed proxy (see
    proxy.py) the rows and width of the workload's sLSTM cell and a few
    milliseconds of iterations per burst."""

    WARM_UP = False

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke


class FitWorkload(Workload):
    """train() on a fresh seeded model, then evaluate(test) repeatedly."""

    main_label = "train_windows_per_s"
    forward_label = "eval_windows_per_s"
    EVALS_PER_UNIT = 1

    def setup(self) -> None:
        raise NotImplementedError

    def quality_bound(self) -> float:
        """Test MSE the trained model must beat."""
        return math.inf

    def unit(self, tally: Tally) -> None:
        net = self.net
        with tally.operation("train"):
            t0 = time.perf_counter()
            net, history = training.train(net, self.dataset, self.train_cfg)
            seconds = time.perf_counter() - t0
            check(len(history) > 0, "train() ran no epoch")
            check(all(math.isfinite(r.train_mse) and math.isfinite(r.val_mse)
                      for r in history), "non-finite epoch loss")
            tally.main.append(Sample(
                self.dataset.n_windows("train") * len(history), seconds, t0))
        bound = self.quality_bound()
        for _ in range(self.EVALS_PER_UNIT):
            with tally.operation("evaluate"):
                t0 = time.perf_counter()
                metrics = training.evaluate(net, self.dataset, "test")
                seconds = time.perf_counter() - t0
                # a finite MSE means every prediction was finite
                check(math.isfinite(metrics.mse), "non-finite test MSE")
                check(metrics.mse < bound,
                      f"test MSE {metrics.mse} not below {bound}")
                tally.forward.append(Sample(metrics.n_samples, seconds, t0))
                tally.record_repeatable("test_mse", metrics.mse)


class TinyFit(FitWorkload):
    """configs/sinusoid_tiny.json as shipped, seeded by the harness."""

    name = "tiny_fit"
    EVALS_PER_UNIT = 20   # one evaluate() is ~1% of train(); repeat it
    PROXY = dict(rows=64, width=16, iterations=130, reference_s=32.7e-6)

    def setup(self) -> None:
        overrides = {"data.seed": self.seed, "train.seed": self.seed}
        if self.smoke:
            overrides.update({"train.max_epochs": 1,
                              "data.params": {"length": 1200, "period": 24,
                                              "noise_std": 0.1}})
        cfg = cli.load_run_config(str(CONFIGS / "sinusoid_tiny.json"),
                                  overrides)
        self.model_cfg = cli.make_model_config(cfg["model"])
        self.train_cfg = cli.make_train_config(cfg["train"])
        self.dataset = cli.load_dataset(cfg["data"], self.model_cfg)
        self.net = model.Forecaster(self.model_cfg, seed=self.seed)

    def quality_bound(self) -> float:
        if self.smoke:
            return math.inf
        return 0.5 * training.persistence_metrics(self.dataset, "test").mse


class MixedFit(FitWorkload):
    """The channel-mixed model of acceptance criterion 6 on its 8-channel
    noisy-sinusoid surrogate; patience = max_epochs fixes the epoch count."""

    name = "mixed_fit"
    EPOCHS = 2
    EVALS_PER_UNIT = 12
    # a third of train() is clip + Adam streaming over 1.6 M parameters
    PROXY = dict(rows=32, width=256, iterations=3, reference_s=1.35e-3,
                 stream=400_000)

    def setup(self) -> None:
        length = 600 if self.smoke else 2200
        lookback, horizon = (48, 24) if self.smoke else (96, 96)
        self.model_cfg = cli.make_model_config({
            "lookback": lookback, "horizon": horizon, "n_channels": 8,
            "patch_size": 16, "embed_dim": 32, "n_blocks": 1, "n_heads": 2,
            "dropout_rate": 0.0, "channel_strategy": "mixed"})
        epochs = 1 if self.smoke else self.EPOCHS
        self.train_cfg = cli.make_train_config({
            "max_epochs": epochs, "patience": epochs, "batch_size": 32,
            "seed": self.seed})
        self.dataset = cli.load_dataset({
            "source": "synthetic", "kind": "sinusoid", "seed": self.seed,
            "window_stride": 2,
            "params": {"length": length, "period": 24, "noise_std": 0.6,
                       "channels": 8}}, self.model_cfg)
        self.net = model.Forecaster(self.model_cfg, seed=self.seed)


class WeatherStep(Workload):
    """Training steps at the shape of configs/weather_extended.json on a
    synthetic 21-channel series, driven call by call, then evaluate(test).

    A unit is STEPS_PER_UNIT steps from a fresh model and one evaluate over
    a test split of exactly two batches.
    """

    name = "weather_step"
    main_label = "train_windows_per_s"
    forward_label = "eval_windows_per_s"
    STEPS_PER_UNIT = 3
    WARM_UP = True        # the first step faults in the ~1 GB tape's pages
    PROXY = dict(rows=672, width=128, iterations=1, reference_s=3.6e-3)

    def setup(self) -> None:
        # test windows = int(0.2 * length) - horizon + 1 = two batches
        overrides = {"data.source": "synthetic", "data.kind": "sinusoid",
                     "data.seed": self.seed, "train.seed": self.seed,
                     "data.params": {"length": 1115, "period": 144,
                                     "noise_std": 0.3, "channels": 21}}
        if self.smoke:
            overrides.update({"model.lookback": 96, "model.horizon": 24,
                              "model.embed_dim": 32, "train.batch_size": 8})
            overrides["data.params"]["length"] = 400
        cfg = cli.load_run_config(str(CONFIGS / "weather_extended.json"),
                                  overrides)
        self.model_cfg = cli.make_model_config(cfg["model"])
        self.train_cfg = cli.make_train_config(cfg["train"])
        self.dataset = cli.load_dataset(cfg["data"], self.model_cfg)
        self.net = model.Forecaster(self.model_cfg, seed=self.seed)
        self.opt = training.AdamState(self.net.params)
        self.batch_rng = Rng(self.seed).spawn(1)
        self.drop_rng = Rng(self.seed).spawn(2)

    def step(self) -> tuple[float, float, float]:
        """One training step; returns (loss, seconds, start time)."""
        B = self.train_cfg.batch_size
        idx = self.batch_rng.permutation(self.dataset.n_windows("train"))[:B]
        t0 = time.perf_counter()
        x, y = self.dataset.batch("train", idx)
        yhat, tape = self.net.forward(x, training=True,
                                      dropout_rng=self.drop_rng)
        loss, grad = training.mse_loss(yhat, y)
        check(math.isfinite(loss), "non-finite training loss")
        grads = self.net.backward(tape, grad)
        grads = training.clip_gradients(grads, self.train_cfg.clip_norm)
        training.adam_step(self.net.params, grads, self.opt, self.train_cfg,
                           self.net.masks)
        return loss, time.perf_counter() - t0, t0

    def unit(self, tally: Tally) -> None:
        B = self.train_cfg.batch_size
        for k in range(self.STEPS_PER_UNIT):
            with tally.operation("train_step"):
                loss, seconds, t0 = self.step()
                tally.main.append(Sample(B, seconds, t0))
                tally.record_repeatable(f"step{k}_loss", loss)
        with tally.operation("evaluate"):
            t0 = time.perf_counter()
            metrics = training.evaluate(self.net, self.dataset, "test",
                                        batch_size=B)
            seconds = time.perf_counter() - t0
            check(math.isfinite(metrics.mse), "non-finite eval MSE")
            tally.forward.append(Sample(metrics.n_samples, seconds, t0))
            tally.record_repeatable("eval_mse", metrics.mse)


class ProbeChain(Workload):
    """The probe configs: contraction chain with its checks and coupling,
    then the raw amplification chain and runs of its stabilized twin."""

    name = "probe_chain"
    main_label = "probe_steps_per_s"
    forward_label = "stabilized_steps_per_s"
    COUPLING_STEPS = 500
    STABILIZED_RUNS = 16  # the twin is 500 steps; repeat it for more time
    PROXY = dict(rows=1, width=8, iterations=300, reference_s=14.2e-6)

    def setup(self) -> None:
        overrides = {"probe.seed": self.seed}
        if self.smoke:
            overrides["probe.horizon"] = 2000
        cfg = cli.load_run_config(str(CONFIGS / "probe_contraction.json"),
                                  overrides)
        self.contraction = probe.ChainConfig(**cfg["probe"])
        cfg = cli.load_run_config(str(CONFIGS / "probe_amplification.json"),
                                  {"probe.seed": self.seed})
        self.amplification = probe.ChainConfig(**cfg["probe"])
        self.stabilized = dataclasses.replace(self.amplification,
                                              mode="stabilized")
        self.params, _, _ = probe.chain_params(self.contraction)

    def unit(self, tally: Tally) -> None:
        t0 = time.perf_counter()
        steps = 0
        with tally.operation("contraction"):
            trace = probe.simulate_chain(self.contraction)
            steps += int(trace.finite.sum())
            check(trace.overflow_step is None, "contraction chain overflowed")
            _, contractive = probe.check_contraction(
                self.params, threshold=0.9, n_grid=256,
                seed=self.contraction.seed)
            check(contractive, "contraction config is not contractive")
            report = probe.memory_report(trace, max_lag=20)
            check(report.rho_hat < 1.0, f"rho_hat {report.rho_hat} >= 1")
            tally.record_repeatable("rho_hat", report.rho_hat)
        with tally.operation("coupling"):
            coupling = probe.two_trajectory_coupling(
                self.contraction, horizon=self.COUPLING_STEPS)
            steps += 2 * self.COUPLING_STEPS
            check(coupling.step_below_tol is not None,
                  "coupling gap never reached 1e-6")
        with tally.operation("amplification"):
            raw = probe.simulate_chain(self.amplification)
            steps += int(raw.finite.sum())
            check(raw.overflow_step is not None and raw.overflow_step < 500,
                  "raw amplification chain did not overflow before step 500")
            ratio = probe.ratio_stability_report(raw)
            check(ratio.max_ratio < 10.0, f"max |c/n| {ratio.max_ratio} >= 10")
        for _ in range(self.STABILIZED_RUNS):
            with tally.operation("stabilized twin"):
                t1 = time.perf_counter()
                stab = probe.simulate_chain(self.stabilized)
                seconds = time.perf_counter() - t1
                check(stab.overflow_step is None
                      and bool(np.all(np.isfinite(stab.y_seq))),
                      "stabilized twin went non-finite")
                steps += self.stabilized.horizon
                tally.forward.append(
                    Sample(self.stabilized.horizon, seconds, t1))
        tally.main.append(Sample(steps, time.perf_counter() - t0, t0))


WORKLOADS = {cls.name: cls for cls in (TinyFit, MixedFit, WeatherStep,
                                       ProbeChain)}
