"""Train the patch-based forecaster on a noisy sinusoid and compare it
against two naive baselines.

Run:  python3 demos/forecast_sinusoid.py     (about half a minute on CPU)
"""

from pslstm.datasets import make_synthetic, split_and_standardize
from pslstm.model import Forecaster, ModelConfig
from pslstm.training import (TrainConfig, evaluate, persistence_metrics,
                             train, train_mean_metrics)

raw = make_synthetic("sinusoid", {"length": 10_000, "period": 24,
                                  "noise_std": 0.1}, seed=0)
dataset = split_and_standardize(raw, lookback=96, horizon=24)
print("windows:", {k: dataset.n_windows(k) for k in ("train", "val", "test")})

config = ModelConfig(lookback=96, horizon=24, n_channels=1, patch_size=8,
                     embed_dim=16, n_blocks=1, n_heads=2, dropout_rate=0.1)
model = Forecaster(config, seed=0)
print("trainable parameters:", model.count_params())

model, history = train(model, dataset,
                       TrainConfig(max_epochs=5, patience=3, batch_size=64))
for rec in history:
    print(f"epoch {rec.epoch}: train (running) {rec.train_mse:.4f} "
          f"val {rec.val_mse:.4f} ({rec.seconds:.1f}s)")

test = evaluate(model, dataset, "test")
print(f"model        test mse {test.mse:.4f}  mae {test.mae:.4f}")
print(f"persistence  test mse {persistence_metrics(dataset).mse:.4f}")
print(f"train-mean   test mse {train_mean_metrics(dataset).mse:.4f}")
