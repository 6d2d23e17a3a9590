"""Channel independence vs channel mixing on a small multivariate series.

Channel independence runs every variable through a shared univariate
backbone; channel mixing concatenates the variables' patches, multiplying
the width (and the parameter count) by the channel count. On little data
the mixed variant memorizes the training windows and generalizes worse.

Run:  python3 demos/channel_strategies.py     (a couple of minutes on CPU)
"""

from pslstm.datasets import make_synthetic, split_and_standardize
from pslstm.model import Forecaster, ModelConfig
from pslstm.training import TrainConfig, evaluate, train

raw = make_synthetic("sinusoid", {"length": 2200, "period": 24,
                                  "noise_std": 0.6, "channels": 8}, seed=5)
dataset = split_and_standardize(raw, lookback=96, horizon=96, stride=2)

for strategy in ("independent", "mixed"):
    config = ModelConfig(lookback=96, horizon=96, n_channels=8,
                         patch_size=16, embed_dim=32, n_blocks=1, n_heads=2,
                         dropout_rate=0.0, channel_strategy=strategy)
    model = Forecaster(config, seed=0)
    model, _ = train(model, dataset,
                     TrainConfig(max_epochs=10, patience=10, batch_size=32))
    tr = evaluate(model, dataset, "train")
    te = evaluate(model, dataset, "test")
    print(f"{strategy:12s} params {config.n_params:7d}  "
          f"train mse {tr.mse:.4f}  test mse {te.mse:.4f}")
