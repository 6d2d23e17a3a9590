"""Tests for the patch-based forecaster: patching, forward/backward,
channel strategies, parameter accounting, checkpoints."""

import numpy as np
import pytest

from pslstm.cells import GateMode, grad_check
from pslstm.model import (Forecaster, ModelConfig, config_from_dict,
                          load_checkpoint, patchify, save_checkpoint)
from pslstm.tensorops import Rng, ShapeError
from pslstm.training import mse_loss

TINY = dict(lookback=16, horizon=4, n_channels=2, patch_size=4,
            embed_dim=8, n_blocks=1, n_heads=2, dropout_rate=0.0)


def tiny_config(**overrides):
    return ModelConfig(**{**TINY, **overrides})


# -- config validation ------------------------------------------------------

def test_config_rejects_patch_larger_than_lookback():
    with pytest.raises(ValueError):
        tiny_config(patch_size=32)


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        tiny_config(embed_dim=9)


def test_config_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        tiny_config(channel_strategy="both")


def test_config_patch_count_arithmetic():
    cfg = ModelConfig(lookback=336, horizon=96, n_channels=1, patch_size=16,
                      embed_dim=8, n_heads=2)
    assert cfg.n_patches == 21


# -- patchify ---------------------------------------------------------------

def test_patchify_identity_segmentation():
    cfg = ModelConfig(lookback=8, horizon=1, n_channels=1, patch_size=8,
                      embed_dim=8, n_heads=2)
    x = np.arange(8, dtype=np.float64).reshape(1, 8, 1)
    out = patchify(x, cfg)
    assert out.shape == (1, 1, 8)
    assert np.array_equal(out[0, 0], np.arange(8))


def test_patchify_overlapping_index_oracle():
    # L=10, P=4, S=3 -> 3 patches over [0..3], [3..6], [6..9]
    cfg = ModelConfig(lookback=10, horizon=1, n_channels=1, patch_size=4,
                      patch_stride=3, embed_dim=8, n_heads=2)
    x = np.arange(10, dtype=np.float64).reshape(1, 10, 1)
    out = patchify(x, cfg)
    assert out.shape == (1, 3, 4)
    assert np.array_equal(out[0, 0], [0, 1, 2, 3])
    assert np.array_equal(out[0, 1], [3, 4, 5, 6])
    assert np.array_equal(out[0, 2], [6, 7, 8, 9])
    assert out[0, 1, 2] == 5.0


def test_patchify_drops_oldest_rows_when_stride_misaligned():
    # L=10, P=4, S=4 -> 2 patches; the 2 oldest timesteps fall off the front
    cfg = ModelConfig(lookback=10, horizon=1, n_channels=1, patch_size=4,
                      embed_dim=8, n_heads=2)
    x = np.arange(10, dtype=np.float64).reshape(1, 10, 1)
    out = patchify(x, cfg)
    assert np.array_equal(out[0, 0], [2, 3, 4, 5])
    assert np.array_equal(out[0, 1], [6, 7, 8, 9])


def test_patchify_row_order_is_sample_major():
    cfg = tiny_config()
    rng = Rng(1)
    x = rng.normal((3, 16, 2), 0.0, 1.0)
    out = patchify(x, cfg)
    assert out.shape == (6, 4, 4)
    # row b*M + m carries channel m of sample b
    assert np.array_equal(out[2 * 2 + 1, 0], x[2, 0:4, 1])


def test_patchify_shape_errors():
    cfg = tiny_config()
    with pytest.raises(ShapeError):
        patchify(np.zeros((4, 16)), cfg)


# -- forward ----------------------------------------------------------------

def test_forward_output_shape():
    model = Forecaster(tiny_config(), seed=0)
    x = Rng(2).normal((5, 16, 2), 0.0, 1.0)
    yhat, _ = model.forward(x)
    assert yhat.shape == (5, 4, 2)


def test_forward_rejects_wrong_shapes():
    model = Forecaster(tiny_config(), seed=0)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((2, 15, 2)))
    with pytest.raises(ShapeError):
        model.forward(np.zeros((2, 16, 3)))


def test_forward_constant_series_identity_with_zero_head():
    # instance normalization maps a constant window to 0; with the head
    # zeroed the denormalization step reproduces the constant exactly
    model = Forecaster(tiny_config(), seed=0)
    model.params["head.W"][...] = 0.0
    model.params["head.b"][...] = 0.0
    x = np.full((1, 16, 2), 5.0)
    yhat, _ = model.forward(x)
    assert np.allclose(yhat, 5.0)


def test_forward_channel_permutation_equivariance():
    # channel independence shares all weights, so permuting input channels
    # permutes the forecast channels (up to BLAS accumulation-order rounding)
    cfg = tiny_config(n_channels=3, channel_strategy="independent")
    model = Forecaster(cfg, seed=4)
    x = Rng(5).normal((4, 16, 3), 0.0, 1.0)
    perm = np.array([2, 0, 1])
    y_a, _ = model.forward(x)
    y_b, _ = model.forward(x[:, :, perm])
    assert np.max(np.abs(y_a[:, :, perm] - y_b)) < 1e-12


def test_forward_deterministic_without_dropout():
    model = Forecaster(tiny_config(), seed=0)
    x = Rng(6).normal((3, 16, 2), 0.0, 1.0)
    a, _ = model.forward(x)
    b, _ = model.forward(x)
    assert np.array_equal(a, b)


def test_training_forward_needs_rng_when_dropout_active():
    model = Forecaster(tiny_config(dropout_rate=0.2), seed=0)
    x = Rng(7).normal((2, 16, 2), 0.0, 1.0)
    with pytest.raises(ValueError):
        model.forward(x, training=True)


def test_dropout_off_at_evaluation_time():
    model = Forecaster(tiny_config(dropout_rate=0.5), seed=0)
    x = Rng(8).normal((2, 16, 2), 0.0, 1.0)
    a, _ = model.forward(x)
    b, _ = model.forward(x)
    assert np.array_equal(a, b)


# -- backward ---------------------------------------------------------------

def _model_gradcheck(cfg, seed=0, eps=1e-5, training=False):
    model = Forecaster(cfg, seed=seed)
    rng = Rng(seed + 100)
    x = rng.normal((2, cfg.lookback, cfg.n_channels), 0.0, 1.0)
    y = rng.normal((2, cfg.horizon, cfg.n_channels), 0.0, 1.0)

    def loss_and_grads(params):
        for k, v in params.items():
            model.params[k][...] = v
        # a fresh generator per call draws the same dropout masks every time
        yhat, tape = model.forward(x, training=training,
                                   dropout_rng=Rng(seed + 200))
        if training and cfg.dropout_rate > 0:
            assert all(m.dtype == bool for m in tape.dropout_masks)
        loss, gy = mse_loss(yhat, y)
        return loss, model.backward(tape, gy)

    return grad_check(loss_and_grads,
                      {k: v.copy() for k, v in model.params.items()},
                      eps, masks=model.masks)


def test_backward_matches_finite_differences_small():
    cfg = ModelConfig(lookback=8, horizon=2, n_channels=2, patch_size=4,
                      embed_dim=4, n_blocks=1, n_heads=2, dropout_rate=0.0)
    assert _model_gradcheck(cfg) < 1e-4


def test_backward_two_blocks():
    cfg = ModelConfig(lookback=8, horizon=2, n_channels=1, patch_size=4,
                      embed_dim=4, n_blocks=2, n_heads=2, dropout_rate=0.0)
    assert _model_gradcheck(cfg) < 1e-4


def test_backward_through_dropout():
    cfg = ModelConfig(lookback=8, horizon=2, n_channels=2, patch_size=4,
                      embed_dim=4, n_blocks=2, n_heads=2, dropout_rate=0.3)
    assert _model_gradcheck(cfg, training=True) < 1e-4


def test_backward_channel_mixed():
    cfg = ModelConfig(lookback=8, horizon=2, n_channels=2, patch_size=4,
                      embed_dim=4, n_blocks=1, n_heads=2, dropout_rate=0.0,
                      channel_strategy="mixed")
    assert _model_gradcheck(cfg) < 1e-4


def test_backward_no_instance_norm():
    cfg = ModelConfig(lookback=8, horizon=2, n_channels=1, patch_size=4,
                      embed_dim=4, n_blocks=1, n_heads=2, dropout_rate=0.0,
                      instance_norm=False)
    assert _model_gradcheck(cfg) < 1e-4


def test_backward_grads_follow_params_order():
    # clip_gradients sums squared norms in dict order; params order keeps
    # that float sum the same from run to run
    model = Forecaster(tiny_config(n_blocks=2), seed=0)
    x = Rng(1).normal((2, 16, 2), 0.0, 1.0)
    yhat, tape = model.forward(x)
    grads = model.backward(tape, np.ones_like(yhat))
    assert list(grads) == list(model.params)


# -- channel mixing ---------------------------------------------------------

def test_channel_mixed_single_channel_degenerates_to_independent():
    a = Forecaster(tiny_config(n_channels=1), seed=7)
    b = Forecaster(tiny_config(n_channels=1, channel_strategy="mixed"), seed=7)
    x = Rng(9).normal((4, 16, 1), 0.0, 1.0)
    y_a, _ = a.forward(x)
    y_b, _ = b.forward(x)
    assert np.array_equal(y_a, y_b)


def test_channel_mixed_parameter_count_grows_with_channels():
    ci = Forecaster(tiny_config(), seed=0)
    cm = Forecaster(tiny_config(channel_strategy="mixed"), seed=0)
    assert cm.count_params() >= 2 * ci.count_params()


def test_channel_independent_count_invariant_to_channels():
    a = Forecaster(tiny_config(n_channels=2), seed=0)
    b = Forecaster(tiny_config(n_channels=5), seed=0)
    assert a.count_params() == b.count_params()


# -- parameter accounting ---------------------------------------------------

def test_count_params_closed_form_tiny():
    # embed 8*4+8, cell 4*(64 W + 32 on-block R + 8 b), layernorm 16,
    # head 4*32+4
    model = Forecaster(tiny_config(), seed=0)
    expect = (8 * 4 + 8) + 4 * (64 + 32 + 8) + 16 + (4 * 32 + 4)
    assert model.count_params() == expect


def test_off_block_entries_are_zero_at_init():
    model = Forecaster(tiny_config(), seed=0)
    for name, mask in model.masks.items():
        assert np.all(model.params[name] * (1.0 - mask) == 0.0)


def test_memory_mixing_off_freezes_recurrence():
    cfg = tiny_config(gate_mode=GateMode(memory_mixing=False))
    model = Forecaster(cfg, seed=0)
    for name, mask in model.masks.items():
        assert np.all(mask == 0.0)
        assert np.all(model.params[name] == 0.0)


# -- checkpointing ----------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    model = Forecaster(tiny_config(), seed=3)
    x = Rng(10).normal((2, 16, 2), 0.0, 1.0)
    y_before, _ = model.forward(x)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    restored = load_checkpoint(path)
    y_after, _ = restored.forward(x)
    assert np.array_equal(y_before, y_after)
    assert restored.config == model.config


def test_checkpoint_version_guard(tmp_path):
    import json
    model = Forecaster(tiny_config(), seed=0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    blob = json.loads(path.read_text())
    blob["version"] = 99
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _edited_checkpoint(tmp_path, edit):
    import json
    model = Forecaster(tiny_config(), seed=0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    blob = json.loads(path.read_text())
    edit(blob)
    path.write_text(json.dumps(blob))
    return path


def test_checkpoint_missing_parameter_rejected(tmp_path):
    path = _edited_checkpoint(tmp_path, lambda b: b["params"].pop("block0.R_f"))
    with pytest.raises(ValueError, match="missing"):
        load_checkpoint(path)


def test_checkpoint_unknown_parameter_rejected(tmp_path):
    path = _edited_checkpoint(tmp_path, lambda b: b["params"].update(
        {"block1.W_z": b["params"]["block0.W_z"]}))
    with pytest.raises(ValueError, match="unknown"):
        load_checkpoint(path)


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    def transpose_head(blob):
        rows, cols = blob["params"]["head.W"]["shape"]
        blob["params"]["head.W"]["shape"] = [cols, rows]
    path = _edited_checkpoint(tmp_path, transpose_head)
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(path)


def test_checkpoint_bad_config_rejected(tmp_path):
    path = _edited_checkpoint(
        tmp_path, lambda b: b["config"].update({"hidden_layers": 3}))
    with pytest.raises(ValueError, match="malformed"):
        load_checkpoint(path)


def test_config_round_trip_through_dict():
    cfg = tiny_config(gate_mode=GateMode(memory_mixing=False),
                      channel_strategy="mixed")
    from pslstm.model import _config_to_dict
    assert config_from_dict(_config_to_dict(cfg)) == cfg


def test_clone_is_independent():
    model = Forecaster(tiny_config(), seed=1)
    other = model.clone()
    other.params["embed.b"] += 1.0
    assert np.all(model.params["embed.b"] == 0.0)
