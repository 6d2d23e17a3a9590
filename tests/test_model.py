"""Tests for the patch-based forecaster: patching, forward/backward,
channel strategies, parameter accounting, checkpoints."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import pslstm
from pslstm import tensorops
from pslstm.cells import LSTM_MODE, GateMode, grad_check
from pslstm.model import (Forecaster, ModelConfig, load_checkpoint, patchify,
                          save_checkpoint)
from pslstm.tensorops import DataError, Rng, ShapeError, from_dict
from pslstm.training import mse_loss

TINY = dict(lookback=16, horizon=4, n_channels=2, patch_size=4,
            embed_dim=8, n_blocks=1, n_heads=2, dropout_rate=0.0)


def tiny_config(**overrides):
    return ModelConfig(**{**TINY, **overrides})


# -- config validation ------------------------------------------------------

def test_config_rejects_patch_larger_than_lookback():
    with pytest.raises(ValueError):
        tiny_config(patch_size=32)
    assert tiny_config(patch_stride=16).n_patches == 1


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
    # 4 patches of 4 span 16 steps: a series of 10 must not wrap around
    with pytest.raises(ShapeError, match="series length 10 is shorter"):
        patchify(np.arange(10.0).reshape(1, 10, 1), tiny_config(n_channels=1))
    with pytest.raises(ShapeError):
        patchify(np.zeros((1, 3, 2)), cfg)


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


@pytest.mark.parametrize("int32_first", [False, True],
                         ids=["fresh", "buffered_half"])
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("shape, rows_per_block", [
    ((11, 4, 8), 3),            # three full blocks and a tail of 2
    ((12, 4, 8), 4),            # three blocks, one short of the split bound
    ((13, 4, 8), 4),            # four blocks, the worker's half from row 8
    ((11, 4, 8), 10**6),        # one block
    ((7, 5), 1),                # 2-D, a block per row
    ((1344, 21, 128), None),    # the Weather shape at the shipped budget
])
def test_keep_mask_is_one_uniform_draw_compared_with_the_rate(
        shape, rows_per_block, cpus, int32_first):
    model = Forecaster(tiny_config(dropout_rate=0.3), seed=0)
    budget = tensorops._CHUNK if rows_per_block is None \
        else rows_per_block * int(np.prod(shape[1:]))
    drawn, whole = Rng(5), Rng(5)
    if int32_first:
        # leaves half of a 64-bit output buffered, which a uniform draw
        # keeps for the next 32-bit draw
        for rng in (drawn, whole):
            rng._gen.integers(0, 2**32, dtype=np.uint32)
    with mock.patch.object(tensorops, "_CHUNK", budget), \
            mock.patch.object(tensorops, "_cpus", lambda: cpus), \
            mock.patch.object(Rng, "skip", autospec=True,
                              side_effect=Rng.skip) as skip:
        split = cpus == 2 and len(tensorops.row_slices(shape)) \
            >= tensorops._ELEMENTWISE_SPLIT_BLOCKS
        keep = model._keep_mask(shape, drawn)
    # the caller's stream skips the worker's half exactly when it split
    assert skip.call_count == split
    want = whole.uniform(shape) >= 0.3
    assert keep.dtype == bool and keep.shape == shape
    assert keep.tobytes() == want.tobytes()

    # the stream is left where the whole draw leaves it: the next 32-bit
    # draw takes the buffered half, if any, and the next uniform values
    # the next 64-bit outputs
    def following(stream):
        return [stream._gen.integers(0, 2**32, (3,), dtype=np.uint32)
                .tobytes(), stream.uniform((3,)).tobytes()]
    assert following(drawn) == following(whole)
    assert model._keep_mask(shape, None) is None


# -- the tape-free evaluation path ------------------------------------------

PREDICT_CASES = {
    "independent": {},
    "mixed": dict(channel_strategy="mixed"),
    "two_blocks": dict(n_blocks=2),
    "no_instance_norm": dict(instance_norm=False),
    "lstm_two_blocks_mixed": dict(n_blocks=2, channel_strategy="mixed",
                                  gate_mode=LSTM_MODE),
    "no_memory_mixing": dict(gate_mode=GateMode(memory_mixing=False)),
}


@pytest.mark.parametrize("rows_per_block", [2, 10**6])
@pytest.mark.parametrize("name", sorted(PREDICT_CASES))
def test_predict_is_bitwise_forward(name, rows_per_block):
    # 5 windows x 3 channels = 15 rows: blocks of 2 leave a tail of 1
    cfg = tiny_config(n_channels=3, embed_dim=16, n_heads=4, dropout_rate=0.2,
                      **PREDICT_CASES[name])
    model = Forecaster(cfg, seed=3)
    x = Rng(4).normal((5, cfg.lookback, 3), 0.0, 2.0)
    with mock.patch.object(tensorops, "_CHUNK",
                           rows_per_block * cfg.n_patches * model.width):
        yhat = model.predict(x)
        assert yhat.tobytes() == model.forward(x)[0].tobytes()
    assert yhat.shape == (5, cfg.horizon, 3)


def test_predict_rejects_what_forward_rejects():
    model = Forecaster(tiny_config(), seed=0)
    for bad in [(2, 15, 2), (2, 16, 3), (16, 2)]:
        for run in (model.predict, model.forward):
            with pytest.raises(ShapeError, match=r"expected \(B, 16, 2\)"):
                run(np.zeros(bad))


def test_predict_raises_on_a_non_finite_stabilized_state():
    model = Forecaster(tiny_config(instance_norm=False), seed=0)
    x = Rng(1).normal((3, 16, 2))
    model.predict(x)
    x[-1, -1, -1] = np.nan
    for run in (model.predict, model.forward):
        with pytest.raises(FloatingPointError):
            run(x)


def test_predict_calls_share_nothing():
    # predict on two models and two batch sizes, interleaved with a
    # training step, gives the bytes of each call made on its own
    cfgs = [tiny_config(n_channels=3, embed_dim=16, n_heads=4,
                        dropout_rate=0.2),
            tiny_config(n_channels=3, n_blocks=2, channel_strategy="mixed")]
    xs = [Rng(7).normal((n, 16, 3)) for n in (5, 2)]
    calls = [(cfg, x) for cfg in cfgs for x in xs]

    def fresh(cfg, x):
        return Forecaster(cfg, seed=1).predict(x).tobytes()

    models = [Forecaster(cfg, seed=1) for cfg in cfgs]
    trained = Forecaster(cfgs[0], seed=2)
    got = []
    with mock.patch.object(tensorops, "_CHUNK", 2 * 3 * 16):
        alone = [fresh(cfg, x) for cfg, x in calls]
        for i, (cfg, x) in enumerate(calls):
            got.append(models[cfgs.index(cfg)].predict(x).tobytes())
            yhat, tape = trained.forward(xs[i % 2], training=True,
                                         dropout_rng=Rng(i))
            trained.backward(tape, np.ones_like(yhat))
        got.append(models[0].predict(xs[0]).tobytes())
    assert got[:4] == alone
    assert got[4] == alone[0]


def test_predict_holds_no_gate_buffer_of_the_whole_batch():
    # 64 Weather windows run in 21 units of 64 rows: the call's traced peak
    # (about 50 MB, the embedding's 29 MB output included) stays below the
    # 116 MB gate buffer of all 1,344 rows, which a pass over the whole
    # batch allocated (its peak was about 205 MB)
    cfg = ModelConfig(**WEATHER_SHAPE)
    model = Forecaster(cfg, seed=0)
    x = Rng(3).normal((64, cfg.lookback, cfg.n_channels))
    tracemalloc.start()
    try:
        model.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * model.gate_elements_per_window * 8


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
                      {k: v.copy() for k, v in model.params.items()}, eps)


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


def test_backward_matches_finite_differences_in_row_blocks():
    # a budget of one layer-norm row: the cell and the layer norm each run
    # several row blocks, and the blocks see different dropout masks
    cfg = ModelConfig(lookback=8, horizon=2, n_channels=3, patch_size=4,
                      embed_dim=4, n_blocks=2, n_heads=2, dropout_rate=0.3)
    with mock.patch.object(tensorops, "_CHUNK", 2 * 4):
        assert _model_gradcheck(cfg, training=True) < 1e-4


# -- row blocks -------------------------------------------------------------

def _whole_layer_norm(u, h_seq, gain, bias, keep, rate):
    """The layer norm and dropout of one block over whole arrays."""
    xhat = u + h_seq
    xhat -= xhat.mean(axis=-1, keepdims=True)
    std = np.sqrt(np.sum(xhat * xhat, axis=-1, keepdims=True)
                  / u.shape[-1] + 1e-5)
    xhat /= std
    out = xhat * gain
    out += bias
    if keep is not None:
        out *= keep
        out *= 1.0 / (1.0 - rate)
    return xhat, std, out


def _whole_layer_norm_backward(g_u, xhat, std, gain, keep, rate):
    g_u = g_u.copy()
    if keep is not None:
        g_u *= keep
        g_u *= 1.0 / (1.0 - rate)
    g_gain, g_bias = (g_u * xhat).sum(axis=(0, 1)), g_u.sum(axis=(0, 1))
    g_xhat = g_u * gain
    g_r = (g_xhat - g_xhat.mean(axis=-1, keepdims=True)
           - xhat * (g_xhat * xhat).mean(axis=-1, keepdims=True)) / std
    return g_gain, g_bias, g_r


@pytest.mark.parametrize("rows_per_block", [1, 4, 10**6])
@pytest.mark.parametrize("dropout", [False, True])
def test_blocked_layer_norm_is_bitwise_the_whole_array_version(
        rows_per_block, dropout):
    cfg = tiny_config(embed_dim=16, n_heads=4, dropout_rate=0.25)
    model = Forecaster(cfg, seed=0)
    rng = Rng(21)
    rows, N, E = 11, cfg.n_patches, model.width     # 11: not a multiple of 4
    u = rng.normal((rows, N, E), 0.0, 2.0)
    h_seq = rng.normal((N, rows, E)).transpose(1, 0, 2)   # a tape-like view
    model.params["block0.ln_gain"][...] = rng.normal((E,), 1.0, 0.3)
    model.params["block0.ln_bias"][...] = rng.normal((E,), 0.0, 0.3)
    gain, bias = model.params["block0.ln_gain"], model.params["block0.ln_bias"]
    keep = rng.uniform(u.shape) >= 0.25 if dropout else None
    g_u = rng.normal(u.shape)

    ref = _whole_layer_norm(u, h_seq, gain, bias, keep, 0.25)
    ref_grads = _whole_layer_norm_backward(g_u, ref[0], ref[1], gain, keep,
                                           0.25)
    with mock.patch.object(tensorops, "_CHUNK", rows_per_block * N * E):
        got = model._layer_norm(0, u, h_seq, keep)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()
        grads, g_r = model._layer_norm_backward(0, g_u.copy(), *got[:2], keep)
        if keep is None:
            # evaluation: the output overwrites a copy of u, no cache
            u_copy = u.copy()
            assert model._layer_norm(0, u_copy, h_seq, cache=False) is u_copy
            assert u_copy.tobytes() == ref[2].tobytes()
    assert grads["block0.ln_gain"].tobytes() == ref_grads[0].tobytes()
    assert grads["block0.ln_bias"].tobytes() == ref_grads[1].tobytes()
    assert g_r.tobytes() == ref_grads[2].tobytes()


@pytest.mark.parametrize("mixing", [False, True])
def test_blocked_training_step_matches_one_block(mixing):
    # 3 windows x 7 channels = 21 rows; a budget of 2 rows, in the cell and
    # in the layer norm, leaves a tail block in both
    cfg = tiny_config(n_channels=7, embed_dim=16, n_heads=4, n_blocks=2,
                      dropout_rate=0.2,
                      gate_mode=GateMode(memory_mixing=mixing))
    rng = Rng(5)
    x = rng.normal((3, cfg.lookback, 7))
    g_y = rng.normal((3, cfg.horizon, 7))

    def step(budget):
        model = Forecaster(cfg, seed=1)
        with mock.patch.object(tensorops, "_CHUNK", budget):
            yhat, tape = model.forward(x, training=True, dropout_rng=Rng(9))
            return [yhat, *model.backward(tape, g_y).values()]

    whole = step(10**9)
    blocked = step(2 * cfg.n_patches * 16)
    for a, b in zip(blocked, whole):
        if mixing:
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
        else:
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_blocks", [1, 2])
def test_backward_frees_the_tape_as_it_goes(n_blocks):
    # the backward's own allocations, above what it starts with, stay
    # within two (B*M, S, width) arrays: each tape array is freed after its
    # last read (holding them all to the end took over four)
    B = 16
    cfg = ModelConfig(lookback=96, horizon=24, n_channels=7, patch_size=8,
                      embed_dim=64, n_blocks=n_blocks, n_heads=4,
                      dropout_rate=0.2)
    model = Forecaster(cfg, seed=0)
    x = Rng(1).normal((B, 96, 7), 0.0, 1.0)
    unit = B * 7 * cfg.n_patches * model.width * 8
    # traced from the forward on, so that freeing a tape array counts
    tracemalloc.start()
    try:
        yhat, tape = model.forward(x, training=True, dropout_rng=Rng(2))
        g_y = np.ones_like(yhat) / yhat.size
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        model.backward(tape, g_y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / unit < 2.0
    for cell_tape in tape.cell_tapes:
        assert (cell_tape.c, cell_tape.n, cell_tape.h, cell_tape.x) \
            == (None,) * 4
    with pytest.raises(ValueError, match="consumed"):
        model.backward(tape, g_y)


def test_backward_grads_follow_params_order():
    # adam_step sums squared norms in dict order; params order keeps that
    # float sum the same from run to run
    model = Forecaster(tiny_config(n_blocks=2), seed=0)
    x = Rng(1).normal((2, 16, 2), 0.0, 1.0)
    yhat, tape = model.forward(x)
    grads = model.backward(tape, np.ones_like(yhat))
    assert list(grads) == list(model.params)


# -- BLAS thread count -------------------------------------------------------

#: One seeded training-mode forward, backward and predict, then two Adam
#: steps (unclipped, clipped), printing the SHA-256 of their bytes; argv:
#: the ModelConfig as JSON, the batch, and "pinned" or "all" CPUs.
_SEEDED_STEP = """
import hashlib, json, os, sys
import numpy as np
from pslstm.model import Forecaster, ModelConfig
from pslstm.tensorops import Rng
from pslstm.training import AdamState, TrainConfig, adam_step
if sys.argv[3] == "pinned":     # this process on one CPU: no split
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
config = ModelConfig(**json.loads(sys.argv[1]))
x = Rng(1).normal((int(sys.argv[2]), config.lookback, config.n_channels))
model = Forecaster(config, seed=0)
yhat, tape = model.forward(x, training=True, dropout_rng=Rng(2))
grads = model.backward(tape, Rng(3).normal(yhat.shape, 0.0, 1.0))
digest = hashlib.sha256(yhat.tobytes())
for name in grads:
    digest.update(grads[name].tobytes())
digest.update(model.predict(x).tobytes())
state = AdamState(model.params)
for clip_norm in (1e6, 1e-3):   # unclipped, then clipped
    norm = adam_step(model.params, grads, state, TrainConfig(),
                     clip_norm=clip_norm)
    digest.update(np.float64(norm).tobytes())
for name in model.params:
    for a in (model.params[name], state.m[name], state.v[name]):
        digest.update(a.tobytes())
print(digest.hexdigest())
"""


def _seeded_step(shape, batch, blas_threads="1", cpus="all"):
    """The SHA-256 of _SEEDED_STEP run in a new process, with cpus "all"
    or "pinned" to one CPU."""
    src = str(Path(pslstm.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join(
               [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    run = subprocess.run(
        [sys.executable, "-c", _SEEDED_STEP, json.dumps(shape), str(batch),
         cpus], env=env, capture_output=True, text=True, check=True)
    digest = run.stdout.strip()
    assert len(digest) == 64
    return digest


# configs/sinusoid_tiny.json's model
TINY_SHAPE = dict(lookback=96, horizon=24, n_channels=1, patch_size=8,
                  embed_dim=16, dropout_rate=0.1)
WEATHER_SHAPE = dict(lookback=336, horizon=96, n_channels=21, patch_size=16,
                     embed_dim=128, n_heads=4, dropout_rate=0.2)
# acceptance criterion 6's channel-mixed model
MIXED_SHAPE = dict(lookback=96, horizon=96, n_channels=8, patch_size=16,
                   embed_dim=32, n_heads=2, channel_strategy="mixed",
                   dropout_rate=0.1)


@pytest.mark.parametrize("shape, batch", [
    (MIXED_SHAPE, 32),
    # configs/weather_extended.json's model and batch
    (WEATHER_SHAPE, 64),
    # below 32 windows the input-weight gradients' GEMMs (rows.T @ x_rows,
    # 21 * 21 * batch terms a sum) rounded differently under two threads
    # with OpenBLAS 0.3.31; not strict, since that depends on the build
    pytest.param(WEATHER_SHAPE, 16, marks=pytest.mark.xfail(
        reason="embed.W and block0.W gradients depend on the BLAS thread "
               "count at this batch")),
], ids=["mixed", "weather", "weather_16"])
def test_seeded_step_does_not_depend_on_the_blas_thread_count(shape, batch):
    assert _seeded_step(shape, batch, "1") == _seeded_step(shape, batch, "2")


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 CPUs to compare a split with the plain loop")
@pytest.mark.parametrize("shape, batch", [
    (MIXED_SHAPE, 32),      # Adam's 50 chunks split
    (WEATHER_SHAPE, 64),    # every cell row block, layer norm and chunk
], ids=["mixed", "weather"])
def test_seeded_step_does_not_depend_on_the_cpu_count(shape, batch):
    assert _seeded_step(shape, batch, cpus="pinned") == \
        _seeded_step(shape, batch, cpus="all")


def predict_in_batches(model, x, size):
    return np.concatenate([model.predict(x[k:k + size])
                           for k in range(0, len(x), size)])


SMALL_KERNEL = pytest.mark.xfail(strict=False, reason=(
    "the products of a small batch fit this OpenBLAS's small-matrix kernel, "
    "which rounds differently (up to 2.7e-15)"))


@pytest.mark.parametrize("shape, cpus", [
    pytest.param(TINY_SHAPE, None, marks=SMALL_KERNEL),
    pytest.param(MIXED_SHAPE, None, marks=SMALL_KERNEL),
    (WEATHER_SHAPE, 1),
    (WEATHER_SHAPE, 2),     # splits matmul_rows' products from 1 window on
], ids=["tiny", "mixed", "weather_1_cpu", "weather_2_cpus"])
def test_a_windows_forecast_does_not_depend_on_its_batch(shape, cpus):
    cfg = ModelConfig(**shape)
    model = Forecaster(cfg, seed=0)
    x = Rng(6).normal((64, cfg.lookback, cfg.n_channels), 0.5, 3.0)
    with mock.patch.object(tensorops, "_cpus",
                           (lambda: cpus) if cpus else tensorops._cpus):
        whole = predict_in_batches(model, x, 64)
        for size in (1, 7, 32):
            got = predict_in_batches(model, x, size)
            differ = [k for k in range(64)
                      if got[k].tobytes() != whole[k].tobytes()]
            assert not differ, (size, differ)


@pytest.mark.parametrize("shape, batch", [
    (TINY_SHAPE, 64),
    (MIXED_SHAPE, 32),
    (WEATHER_SHAPE, 64),
], ids=["tiny", "mixed", "weather"])
def test_instance_norm_is_numpys_mean_and_std(shape, batch):
    cfg = ModelConfig(**shape)
    model = Forecaster(cfg, seed=0)
    x = Rng(2).normal((batch, cfg.lookback, cfg.n_channels), 0.5, 3.0)
    mu, sigma, patches, _ = model._embed(x)
    ref_mu = x.mean(axis=1, keepdims=True)
    ref_sigma = x.std(axis=1, keepdims=True) + 1e-5
    g, N = model.channels_per_row, cfg.n_patches
    ref = patchify((x - ref_mu) / ref_sigma, cfg) \
        .reshape(-1, g, N, cfg.patch_size).transpose(0, 2, 1, 3) \
        .reshape(-1, N, model.in_width)
    for got, want in ((mu, ref_mu), (sigma, ref_sigma), (patches, ref)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# -- channel mixing ---------------------------------------------------------

def test_channel_mixed_single_channel_degenerates_to_independent():
    # one channel per row either way (g = 1): the same model, bit for bit
    cfg = dict(n_channels=1, n_blocks=2, dropout_rate=0.2)
    a = Forecaster(tiny_config(**cfg), seed=7)
    b = Forecaster(tiny_config(**cfg, channel_strategy="mixed"), seed=7)
    assert list(a.params) == list(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name]), name
    x = Rng(9).normal((4, 16, 1), 0.0, 1.0)
    y_a, tape_a = a.forward(x, training=True, dropout_rng=Rng(3))
    y_b, tape_b = b.forward(x, training=True, dropout_rng=Rng(3))
    assert np.array_equal(y_a, y_b)
    g_a = a.backward(tape_a, np.cos(y_a))
    g_b = b.backward(tape_b, np.cos(y_b))
    for name in g_a:
        assert np.array_equal(g_a[name], g_b[name]), name
    assert np.array_equal(a.predict(x), b.predict(x))


@pytest.mark.parametrize("strategy", ["independent", "mixed"])
@pytest.mark.parametrize("shape", [
    dict(), dict(n_channels=3, n_blocks=2),
    dict(lookback=21, patch_size=6, patch_stride=3, n_channels=4, embed_dim=4)])
def test_grouping_factor_sets_rows_widths_and_gate_elements(monkeypatch,
                                                            strategy, shape):
    cfg = tiny_config(**shape, channel_strategy=strategy)
    g = cfg.n_channels if strategy == "mixed" else 1
    model = Forecaster(cfg, seed=0)
    assert (model.width, model.in_width, model.out_width) == (
        cfg.embed_dim * g, cfg.patch_size * g, cfg.horizon * g)
    B, N, M = 5, cfg.n_patches, cfg.n_channels
    x = Rng(4).normal((B, cfg.lookback, M), 0.0, 1.0)
    made = []

    def recording_patchify(*args):
        made.append(patchify(*args))
        return made[-1]

    monkeypatch.setattr("pslstm.model.patchify", recording_patchify)
    _, _, patches, u = model._embed(x)
    assert patches.shape == (B * M // g, N, cfg.patch_size * g)
    assert u.shape == (B * M // g, N, cfg.embed_dim * g)
    # under channel independence the embedding reads patchify's own array
    assert np.shares_memory(patches, made[0]) == (g == 1)
    # rows times width is M * E under both strategies
    assert model.gate_elements_per_window == 4 * N * M * cfg.embed_dim \
        * cfg.n_blocks == N * 4 * u.shape[0] * u.shape[2] // B * cfg.n_blocks


def test_channel_mixed_parameter_count_grows_with_channels():
    ci = tiny_config()
    cm = tiny_config(channel_strategy="mixed")
    assert cm.n_params >= 2 * ci.n_params


def test_channel_independent_count_invariant_to_channels():
    assert tiny_config(n_channels=2).n_params \
        == tiny_config(n_channels=5).n_params


# -- parameter accounting ---------------------------------------------------

def test_n_params_closed_form_tiny():
    # embed 8*4+8, cell 4*(64 W + 32 on-block R + 8 b), layernorm 16,
    # head 4*32+4
    cfg = tiny_config()
    expect = (8 * 4 + 8) + 4 * (64 + 32 + 8) + 16 + (4 * 32 + 4)
    assert cfg.n_params == expect
    assert sum(a.size for a in Forecaster(cfg, seed=0).params.values()) \
        == expect


@pytest.mark.parametrize("shape", [
    {}, dict(n_blocks=3, n_heads=4), dict(channel_strategy="mixed"),
    dict(gate_mode=GateMode(memory_mixing=False), n_blocks=2),
    dict(lookback=21, patch_size=6, patch_stride=3, n_channels=4,
         embed_dim=4, channel_strategy="mixed"),
    TINY_SHAPE, MIXED_SHAPE, WEATHER_SHAPE])
def test_config_counts_the_parameters_of_its_model(shape):
    cfg = tiny_config(**shape)
    assert cfg.n_params == sum(a.size for a in
                               Forecaster(cfg, seed=0).params.values())


@pytest.mark.parametrize("strategy, g", [("independent", 1), ("mixed", 3)])
def test_config_and_model_share_the_channels_per_row(strategy, g):
    cfg = tiny_config(n_channels=3, channel_strategy=strategy)
    model = Forecaster(cfg, seed=0)
    assert cfg.channels_per_row == model.channels_per_row == g
    assert model.width == cfg.embed_dim * g


@pytest.mark.parametrize("field, value, message", [
    ("n_blocks", 2**63, "parameters"), ("embed_dim", 2**62, "parameters"),
    ("embed_dim", 10**400, "parameters"), ("horizon", 2**40, "parameters"),
    ("patch_stride", 17, "exceeds lookback"),
    ("patch_stride", 10**400, "exceeds lookback")])
def test_config_rejects_a_model_too_large_to_build(field, value, message):
    # rejected before any array is made: a parameter count this large
    # would fail inside numpy or build blocks without end, and a stride
    # of 2^63 or more overflowed patchify's int64 indices
    with pytest.raises(ValueError, match=message):
        tiny_config(**{field: value})


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


@pytest.mark.parametrize("raw", [b"{not json", b"\xff\xfe{}"])
def test_checkpoint_undecodable_rejected(tmp_path, raw):
    path = tmp_path / "ckpt.json"
    path.write_bytes(raw)
    with pytest.raises(DataError, match="malformed"):
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
    path = _edited_checkpoint(tmp_path, lambda b: b["params"].pop("block0.R"))
    with pytest.raises(ValueError, match="missing"):
        load_checkpoint(path)


def test_checkpoint_unknown_parameter_rejected(tmp_path):
    path = _edited_checkpoint(tmp_path, lambda b: b["params"].update(
        {"block1.W": b["params"]["block0.W"]}))
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
    assert from_dict(ModelConfig, asdict(cfg)) == cfg
