"""Acceptance gate: one test per release criterion.

Each test prints a single summary line with the measured quantity and its
tolerance so a failing run is diagnosable from the log alone. The full
Weather benchmark reproduction is documentation-only (see criterion 7);
everything else runs end to end at desk scale.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from pslstm.cells import GateMode, LSTM_MODE, SLSTMParams, grad_check, slstm_forward
from pslstm.cli import main
from pslstm.datasets import (CsvSchema, load_csv, make_synthetic,
                             split_and_standardize)
from pslstm.model import Forecaster, ModelConfig
from pslstm.probe import (ChainConfig, chain_params, check_contraction,
                          memory_report, ratio_stability_report,
                          simulate_chain, two_trajectory_coupling)
from pslstm.tensorops import Rng
from pslstm.training import (TrainConfig, evaluate, mse_loss,
                             persistence_metrics, train, train_mean_metrics)

REPO_ROOT = Path(__file__).resolve().parent.parent

TINY = ModelConfig(lookback=16, horizon=4, n_channels=2, patch_size=4,
                   embed_dim=8, n_blocks=1, n_heads=2, dropout_rate=0.0)


def test_criterion_1_gradient_fidelity():
    """Tiny-config finite-difference check: max rel. error < 1e-4 in < 60 s."""
    t0 = time.perf_counter()
    model = Forecaster(TINY, seed=0)
    rng = Rng(100)
    x = rng.normal((2, 16, 2), 0.0, 1.0)
    y = rng.normal((2, 4, 2), 0.0, 1.0)

    def loss_and_grads(params):
        for k, v in params.items():
            model.params[k][...] = v
        yhat, tape = model.forward(x)
        loss, gy = mse_loss(yhat, y)
        return loss, model.backward(tape, gy)

    err = grad_check(loss_and_grads,
                     {k: v.copy() for k, v in model.params.items()},
                     epsilon=1e-5)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: max rel grad error {err:.3e} (< 1e-4), "
          f"{elapsed:.1f}s (< 60s)")
    assert err < 1e-4
    assert elapsed < 60.0


def test_criterion_2_cell_mode_equivalence():
    """Stabilized vs raw agree to 1e-8; sigmoid config matches the classic
    LSTM construction to 1e-12. Runtime < 10 s."""
    t0 = time.perf_counter()
    worst_modes = 0.0
    for trial in range(100):
        rng = Rng(1000 + trial)
        gates = SLSTMParams.init(rng.spawn(1), 4, 6).gates()
        # scale weights so pre-activations stay within [-5, 5]
        x = rng.normal((1, 16, 4), 0.0, 1.0)
        for g in "zifo":
            gates[f"b_{g}"] = rng.normal((6,), 0.0, 1.0).clip(-2, 2)
        params = SLSTMParams.from_gates(gates, 1)
        h_raw, _ = slstm_forward(params, x, None, GateMode(stabilized=False))
        h_stab, _ = slstm_forward(params, x, None, GateMode(stabilized=True))
        worst_modes = max(worst_modes, float(np.max(np.abs(h_raw - h_stab))))

    # classic LSTM: independent step-by-step reference
    from pslstm.tensorops import sigmoid
    params = SLSTMParams.init(Rng(7), 3, 5)
    x = Rng(8).normal((2, 12, 3), 0.0, 1.0)
    h_mode, _ = slstm_forward(params, x, None, LSTM_MODE)
    p = params.gates()
    h = np.zeros((2, 5)); c = np.zeros((2, 5))
    worst_lstm = 0.0
    for t in range(12):
        xt = x[:, t, :]
        z = np.tanh(xt @ p["W_z"].T + h @ p["R_z"].T + p["b_z"])
        i = sigmoid(xt @ p["W_i"].T + h @ p["R_i"].T + p["b_i"])
        f = sigmoid(xt @ p["W_f"].T + h @ p["R_f"].T + p["b_f"])
        o = sigmoid(xt @ p["W_o"].T + h @ p["R_o"].T + p["b_o"])
        c = f * c + i * z
        h = o * np.tanh(c)
        worst_lstm = max(worst_lstm, float(np.max(np.abs(h_mode[:, t, :] - h))))
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: stabilized-vs-raw sup {worst_modes:.2e} (< 1e-8), "
          f"lstm construction sup {worst_lstm:.2e} (< 1e-12), "
          f"{elapsed:.1f}s (< 10s)")
    assert worst_modes < 1e-8
    assert worst_lstm < 1e-12
    assert elapsed < 10.0


def test_criterion_3_geometric_ergodicity():
    """10 seeded contracting chains (gate bound <= 0.9): coupling gap below
    1e-6 within 200 steps, acf log-linear fit R^2 >= 0.9 with rho < 1."""
    t0 = time.perf_counter()
    results = []
    for seed in range(10):
        cfg = ChainConfig(q=8, noise_std=0.01, horizon=20_000, seed=seed,
                          param_seed=0, weight_scale=0.3, out_scale=1.5,
                          target_gate_bound=0.9, positive_feedback=True)
        params, _, _ = chain_params(cfg)
        sup, ok = check_contraction(params, threshold=0.9, n_grid=128,
                                    seed=seed)
        assert ok, f"seed {seed}: gate bound {sup} exceeds 0.9"
        trace = simulate_chain(cfg)
        rep = memory_report(trace, max_lag=20)
        coup = two_trajectory_coupling(cfg, horizon=300)
        results.append((seed, rep.rho_hat, rep.r_squared,
                        coup.step_below_tol))
    elapsed = time.perf_counter() - t0
    worst_r2 = min(r[2] for r in results)
    worst_rho = max(r[1] for r in results)
    worst_step = max(r[3] for r in results)
    print(f"criterion 3: 10/10 chains, rho_hat <= {worst_rho:.3f} (< 1), "
          f"R^2 >= {worst_r2:.3f} (>= 0.9), coupling <= step {worst_step} "
          f"(<= 200), {elapsed:.1f}s (< 120s)")
    for seed, rho, r2, step in results:
        assert rho < 1.0, f"seed {seed}: rho_hat {rho}"
        assert r2 >= 0.9, f"seed {seed}: R^2 {r2}"
        assert step is not None and step <= 200, f"seed {seed}: step {step}"
    assert elapsed < 120.0


def test_criterion_4_amplification_regime():
    """Raw arithmetic with strongly positive forget pre-activations blows up
    past 1e100 within 500 steps while c/n stays < 10; the stabilized cell on
    the same seed never goes non-finite."""
    t0 = time.perf_counter()
    cfg = ChainConfig(q=4, horizon=500, seed=0, forget_bias_offset=3.0,
                      mode="raw")
    # confirm the regime: every forget pre-activation >= +0.5 over the box
    p = chain_params(cfg)[0].gates()
    pre_lo = p["b_f"] - np.abs(p["W_f"]).sum(axis=1) \
        - np.abs(p["R_f"]).sum(axis=1)
    assert np.all(pre_lo >= 0.5)
    trace = simulate_chain(cfg)
    ratio = ratio_stability_report(trace)
    assert trace.overflow_step is not None and trace.overflow_step < 500
    big = np.nanmax(trace.c_norm[trace.finite])
    stab = simulate_chain(ChainConfig(q=4, horizon=500, seed=0,
                                      forget_bias_offset=3.0,
                                      mode="stabilized"))
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: ||c||_inf reaches {big:.2e} (> 1e100) by step "
          f"{trace.overflow_step} (< 500), max ratio {ratio.max_ratio:.3f} "
          f"(< 10), stabilized finite={stab.overflow_step is None}, "
          f"{elapsed:.1f}s (< 10s)")
    assert big > 1e100
    assert ratio.max_ratio < 10.0
    assert stab.overflow_step is None
    assert np.all(np.isfinite(stab.y_seq))
    assert elapsed < 10.0


def _train_sinusoid_model(seed=0):
    raw = make_synthetic("sinusoid", {"length": 10_000, "period": 24,
                                      "noise_std": 0.1}, seed=0)
    ds = split_and_standardize(raw, lookback=96, horizon=24)
    cfg = ModelConfig(lookback=96, horizon=24, n_channels=1, patch_size=8,
                      embed_dim=16, n_blocks=1, n_heads=2, dropout_rate=0.1)
    model = Forecaster(cfg, seed=seed)
    tc = TrainConfig(max_epochs=5, patience=3, batch_size=64, seed=seed)
    model, _ = train(model, ds, tc)
    return model, ds


def test_criterion_5_forecasting_sanity():
    """Noisy sinusoid: trained model beats last-value persistence by 2x and
    the train-mean predictor by 1.25x, within 5 minutes."""
    t0 = time.perf_counter()
    model, ds = _train_sinusoid_model(seed=0)
    mse = evaluate(model, ds, "test").mse
    pers = persistence_metrics(ds, "test").mse
    mean = train_mean_metrics(ds, "test").mse
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: test mse {mse:.4f}, {mse / pers:.3f}x persistence "
          f"(< 0.5), {mse / mean:.3f}x train-mean (< 0.8), "
          f"{elapsed:.1f}s (< 300s)")
    assert mse < 0.5 * pers
    assert mse < 0.8 * mean
    assert elapsed < 300.0


def _weather_csv_path():
    env = os.environ.get("PSLSTM_WEATHER_CSV")
    if env and os.path.exists(env):
        return env
    default = REPO_ROOT / "data" / "weather.csv"
    return str(default) if default.exists() else None


def _ci_cm_dataset():
    path = _weather_csv_path()
    if path is not None:
        raw = load_csv(path, CsvSchema())
        raw.values = raw.values[:10_000]
        return split_and_standardize(raw, lookback=96, horizon=96,
                                     preset="weather", stride=2), "weather"
    # no benchmark file in this environment: a multivariate noisy sinusoid
    # reproduces the same small-data overfitting pressure
    raw = make_synthetic("sinusoid", {"length": 2200, "period": 24,
                                      "noise_std": 0.6, "channels": 8},
                         seed=5)
    return split_and_standardize(raw, lookback=96, horizon=96, stride=2), \
        "synthetic-surrogate"


def test_criterion_6_channel_strategy_overfitting_direction():
    """Channel mixing must overfit relative to channel independence at small
    data scale: strictly lower train MSE and strictly higher test MSE, by
    majority over 3 seeds, within 20 minutes."""
    t0 = time.perf_counter()
    ds, source = _ci_cm_dataset()
    M = ds.values.shape[1]
    votes = 0
    rows = []
    for seed in range(3):
        res = {}
        for strat in ("independent", "mixed"):
            cfg = ModelConfig(lookback=96, horizon=96, n_channels=M,
                              patch_size=16, embed_dim=32, n_blocks=1,
                              n_heads=2, dropout_rate=0.0,
                              channel_strategy=strat)
            model = Forecaster(cfg, seed=seed)
            tc = TrainConfig(max_epochs=10, patience=10, batch_size=32,
                             seed=seed)
            model, _ = train(model, ds, tc)
            res[strat] = (evaluate(model, ds, "train").mse,
                          evaluate(model, ds, "test").mse)
        ci, cm = res["independent"], res["mixed"]
        vote = cm[0] < ci[0] and cm[1] > ci[1]
        votes += vote
        rows.append((seed, ci, cm, vote))
    elapsed = time.perf_counter() - t0
    print(f"criterion 6 [{source}]: CM overfits in {votes}/3 seeds "
          f"(majority needed), {elapsed:.0f}s (< 1200s)")
    for seed, ci, cm, vote in rows:
        print(f"  seed {seed}: CI train/test {ci[0]:.4f}/{ci[1]:.4f}, "
              f"CM {cm[0]:.4f}/{cm[1]:.4f}, direction={'ok' if vote else 'no'}")
    assert votes >= 2
    assert elapsed < 1200.0


def test_criterion_7_full_benchmark_recipe_documented():
    """Full-scale benchmark reproduction is not gated on CI hardware; the
    extended recipe (lookback 336, horizon 96, documented target MSE <=
    0.175, multi-hour CPU runtime) must exist and be runnable as written."""
    recipe = REPO_ROOT / "configs" / "weather_extended.json"
    assert recipe.exists()
    blob = json.loads(recipe.read_text())
    assert blob["model"]["lookback"] == 336
    assert blob["model"]["horizon"] == 96
    readme = (REPO_ROOT / "README.md").read_text()
    assert "weather_extended.json" in readme
    assert "0.175" in readme
    print("criterion 7: extended benchmark recipe present (non-gating)")


def test_criterion_8_patch_size_sweep_interior_optimum():
    """Over patch sizes {2, 8, 24, 96}, the best test MSE lands at an
    interior size (neither extreme), by majority over 3 seeds, within
    15 minutes."""
    t0 = time.perf_counter()
    raw = make_synthetic("sinusoid", {"length": 10_000, "period": 24,
                                      "noise_std": 0.1}, seed=0)
    ds = split_and_standardize(raw, lookback=96, horizon=24, stride=4)
    votes = 0
    for seed in range(3):
        res = {}
        for P in (2, 8, 24, 96):
            cfg = ModelConfig(lookback=96, horizon=24, n_channels=1,
                              patch_size=P, embed_dim=16, n_blocks=1,
                              n_heads=2, dropout_rate=0.1)
            model = Forecaster(cfg, seed=seed)
            tc = TrainConfig(max_epochs=2, patience=2, batch_size=64,
                             seed=seed)
            model, _ = train(model, ds, tc)
            res[P] = evaluate(model, ds, "test").mse
        best = min(res, key=res.get)
        votes += best in (8, 24)
        print(f"  seed {seed}: " + ", ".join(f"P={p} mse={v:.4f}"
                                             for p, v in res.items())
              + f" -> best P={best}")
    elapsed = time.perf_counter() - t0
    print(f"criterion 8: interior optimum in {votes}/3 seeds "
          f"(majority needed), {elapsed:.0f}s (< 900s)")
    assert votes >= 2
    assert elapsed < 900.0


def test_criterion_9_metric_files_byte_identical(tmp_path):
    """Re-running the training and probe commands with identical seeds must
    reproduce the emitted metric files byte for byte."""
    cfg = {
        "model": {"lookback": 16, "horizon": 4, "n_channels": 1,
                  "patch_size": 4, "embed_dim": 8, "n_blocks": 1,
                  "n_heads": 2, "dropout_rate": 0.1},
        "train": {"max_epochs": 2, "batch_size": 32},
        "data": {"source": "synthetic",
                 "params": {"length": 500, "period": 24, "noise_std": 0.1}},
        "probe": {"q": 8, "noise_std": 0.01, "horizon": 2000, "seed": 3,
                  "param_seed": 0, "weight_scale": 0.3, "out_scale": 1.5,
                  "target_gate_bound": 0.9, "positive_feedback": True},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    blobs = {"train": [], "probe": []}
    for rep in range(2):
        out = tmp_path / f"runs{rep}"
        assert main(["train", "--config", str(cfg_path), "--seed", "3",
                     "--force", "--output-dir", str(out)]) == 0
        assert main(["probe", "--config", str(cfg_path), "--force",
                     "--output-dir", str(out)]) == 0
        blobs["train"].append((out / "train" / "metrics.json").read_bytes())
        blobs["probe"].append((out / "probe" / "probe.json").read_bytes())
    same_t = blobs["train"][0] == blobs["train"][1]
    same_p = blobs["probe"][0] == blobs["probe"][1]
    print(f"criterion 9: metrics.json identical={same_t}, "
          f"probe.json identical={same_p}")
    assert same_t and same_p
