"""Tests for the loss, optimizer, clipping, and the training loop."""

import math
import re
import types

import numpy as np
import pytest

from pslstm import tensorops, training
from pslstm.datasets import make_synthetic, split_and_standardize
from pslstm.model import Forecaster, ModelConfig
from pslstm.tensorops import Rng, ShapeError
from pslstm.training import (AdamState, TrainConfig, adam_step,
                             clip_gradients, evaluate, mse_loss,
                             persistence_metrics, train, train_mean_metrics,
                             write_history_csv)

TINY = dict(lookback=16, horizon=4, n_channels=1, patch_size=4,
            embed_dim=8, n_blocks=1, n_heads=2, dropout_rate=0.0)


def small_dataset(noise=0.1, length=600, channels=1, seed=0):
    raw = make_synthetic("sinusoid", {"length": length, "period": 24,
                                      "noise_std": noise,
                                      "channels": channels}, seed=seed)
    return split_and_standardize(raw, lookback=16, horizon=4)


# -- mse loss ---------------------------------------------------------------

def test_mse_identity():
    y = Rng(0).normal((3, 4), 0.0, 1.0)
    loss, grad = mse_loss(y, y)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_mse_hand_oracle():
    # ((1-0)^2 + (2-0)^2) / 2 = 2.5; grad = 2*diff/2 = diff
    loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    assert loss == 2.5
    assert np.array_equal(grad, [1.0, 2.0])


def test_mse_permutation_invariance():
    rng = Rng(1)
    yhat = rng.normal((10,), 0.0, 1.0)
    y = rng.normal((10,), 0.0, 1.0)
    perm = Rng(2).permutation(10)
    assert mse_loss(yhat, y)[0] == pytest.approx(mse_loss(yhat[perm], y[perm])[0],
                                                 rel=1e-14)


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        mse_loss(np.zeros(3), np.zeros(4))


def test_mse_grad_is_derivative():
    rng = Rng(3)
    yhat = rng.normal((5,), 0.0, 1.0)
    y = rng.normal((5,), 0.0, 1.0)
    _, grad = mse_loss(yhat, y)
    eps = 1e-6
    for j in range(5):
        e = np.zeros(5); e[j] = eps
        fd = (mse_loss(yhat + e, y)[0] - mse_loss(yhat - e, y)[0]) / (2 * eps)
        assert abs(fd - grad[j]) < 1e-8


# -- gradient clipping ------------------------------------------------------

def test_clip_noop_below_threshold():
    grads = {"a": np.array([0.3, 0.4])}       # norm 0.5
    out = clip_gradients(grads, 1.0)
    assert out["a"] is grads["a"]


def test_clip_rescales_to_exact_norm():
    grads = {"a": np.full(4, 3.0), "b": np.full(4, 4.0)}   # norm 10
    out = clip_gradients(grads, 1.0)
    total = np.sqrt(sum(np.sum(g * g) for g in out.values()))
    assert abs(total - 1.0) < 1e-12


def test_clip_preserves_direction():
    grads = {"a": Rng(4).normal((6,), 0.0, 5.0)}
    out = clip_gradients(grads, 0.1)
    a, b = grads["a"], out["a"]
    cos = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert abs(cos - 1.0) < 1e-12


def test_clip_rejects_bad_norm():
    with pytest.raises(ValueError):
        clip_gradients({}, 0.0)


# -- adam -------------------------------------------------------------------

def test_adam_zero_grads_fixed_point():
    params = {"w": Rng(5).normal((3,), 0.0, 1.0)}
    before = params["w"].copy()
    state = AdamState(params)
    adam_step(params, {"w": np.zeros(3)}, state, TrainConfig())
    assert np.array_equal(params["w"], before)


def test_adam_first_step_magnitude():
    # with g = 1 at t = 1 the bias-corrected update is lr / (1 + eps_opt)
    cfg = TrainConfig(learning_rate=1e-3)
    params = {"w": np.zeros(1)}
    state = AdamState(params)
    adam_step(params, {"w": np.ones(1)}, state, cfg)
    assert np.isclose(params["w"][0], -cfg.learning_rate / (1.0 + cfg.eps_opt),
                      rtol=1e-10)


def test_adam_rejects_non_finite_grads():
    params = {"w": np.zeros(2)}
    state = AdamState(params)
    with pytest.raises(FloatingPointError, match="w"):
        adam_step(params, {"w": np.array([1.0, np.nan])}, state, TrainConfig())


def test_adam_takes_no_masks():
    params = {"R": np.zeros((2, 2))}
    state = AdamState(params)
    for masks in (None, {}):
        adam_step(params, {"R": np.ones((2, 2))}, state, TrainConfig(), masks)
    assert state.t == 2
    before = params["R"].copy()
    with pytest.raises(ValueError, match="masks"):
        adam_step(params, {"R": np.ones((2, 2))}, state, TrainConfig(),
                  {"R": np.ones((2, 2))})
    assert state.t == 2 and np.array_equal(params["R"], before)


def test_adam_fits_linear_regression():
    # realizable target: y = A x, learnable exactly by a linear map
    rng = Rng(6)
    A = rng.normal((2, 3), 0.0, 1.0)
    X = rng.normal((64, 3), 0.0, 1.0)
    Y = X @ A.T
    params = {"W": np.zeros((2, 3))}
    state = AdamState(params)
    cfg = TrainConfig(learning_rate=0.05)
    for _ in range(400):
        pred = X @ params["W"].T
        loss, grad = mse_loss(pred, Y)
        adam_step(params, {"W": grad.T @ X}, state, cfg)
    assert loss < 1e-3


def _reference_adam_step(params, grads, state, config):
    """The whole-array Adam update that the chunked adam_step replaced."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in {name}")
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    corr1 = 1.0 - b1 ** state.t
    corr2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        step = config.learning_rate * (m / corr1) / (np.sqrt(v / corr2)
                                                     + config.eps_opt)
        p -= step


def _bits(a):
    """The bytes of a in C order: equal bits, sign of zero included."""
    return np.ascontiguousarray(a).tobytes()


def test_adam_chunked_matches_whole_array_update():
    chunk = tensorops._CHUNK
    rng = Rng(7)
    shapes = {
        "long_1d": (2 * chunk + 5,),
        "rows_split": (300, 250),            # 131 rows per chunk
        "wide_row": (3, chunk + 7),
        "fortran": (200, 300),
        "square": (256, 256),
        "small": (5,),
    }
    params = {k: rng.normal(s, 0.0, 1.0) for k, s in shapes.items()}
    params["fortran"] = np.asfortranarray(params["fortran"])
    ref = {k: v.copy(order="K") for k, v in params.items()}
    fortran, start = params["fortran"], {k: _bits(v) for k, v in ref.items()}
    state, ref_state = AdamState(params), AdamState(ref)
    cfg = TrainConfig(learning_rate=1e-2)
    for step in range(5):
        grads = {k: rng.normal(s, 0.0, 1.0) for k, s in shapes.items()}
        before = {k: _bits(g) for k, g in grads.items()}
        adam_step(params, grads, state, cfg)
        _reference_adam_step(ref, grads, ref_state, cfg)
        assert all(_bits(g) == before[k] for k, g in grads.items())
    assert state.t == ref_state.t == 5
    for k in shapes:
        assert _bits(params[k]) == _bits(ref[k]), k
        assert _bits(state.m[k]) == _bits(ref_state.m[k]), k
        assert _bits(state.v[k]) == _bits(ref_state.v[k]), k
    # updated in place, layout kept
    assert params["fortran"] is fortran and fortran.flags.f_contiguous
    assert _bits(fortran) != start["fortran"]


@pytest.mark.parametrize("clip_norm, spike", [
    (1.0, None),            # every norm far above the threshold
    (1e6, None),            # every norm below it: no scaling
    (1.0, 1e200),           # finite entries, a norm that overflows: scale 0
], ids=["above", "below", "overflow"])
def test_adam_fused_clip_matches_clip_then_step(clip_norm, spike):
    chunk = tensorops._CHUNK
    rng = Rng(9)
    shapes = {
        "long_1d": (2 * chunk + 5,),
        "rows_split": (300, 250),
        "wide_row": (3, chunk + 7),
        "fortran": (200, 300),
        "square": (256, 256),
        "small": (5,),
    }
    params = {k: rng.normal(s, 0.0, 1.0) for k, s in shapes.items()}
    params["fortran"] = np.asfortranarray(params["fortran"])
    ref = {k: v.copy(order="K") for k, v in params.items()}
    state, ref_state = AdamState(params), AdamState(ref)
    cfg = TrainConfig(learning_rate=1e-2)
    for step in range(5):
        grads = {k: rng.normal(s, 0.0, 1.0) for k, s in shapes.items()}
        if spike is not None:
            grads["square"][3, 4] = -spike
        before = {k: _bits(g) for k, g in grads.items()}
        with np.errstate(over="ignore"):
            expect = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            norm = adam_step(params, grads, state, cfg, clip_norm=clip_norm)
            adam_step(ref, clip_gradients(grads, clip_norm), ref_state, cfg)
        assert _bits(np.float64(norm)) == _bits(np.float64(expect))
        assert (expect > clip_norm) == (clip_norm == 1.0)
        assert all(_bits(g) == before[k] for k, g in grads.items())
    assert state.t == ref_state.t == 5
    for k in shapes:
        assert _bits(params[k]) == _bits(ref[k]), k
        assert _bits(state.m[k]) == _bits(ref_state.m[k]), k
        assert _bits(state.v[k]) == _bits(ref_state.v[k]), k


@pytest.mark.parametrize("clip_norm", [None, 1.0, 1e6],
                         ids=["unclipped", "above", "below"])
def test_adam_packed_chunks_match_whole_array_update(clip_norm):
    # the flat order is cut into _CHUNK-element chunks: chunk 0 packs w0 ...
    # g2 and the head of g3, chunk 1 the tail of g3, g4, one, scalar and
    # the head of big; empty arrays take no element, the F-ordered one is
    # raveled in F order
    chunk = tensorops._CHUNK
    shapes = {
        "w0": (20, 30), "b0": (30,), "empty": (0,), "empty_2d": (0, 5),
        "fortran": (40, 50),
        "g1": (100, 100), "g2": (150, 100), "g3": (chunk // 4,),
        "g4": (7, 3), "one": (1,), "scalar": (),
        "big": (300, 250),
        "tail": (5, 5),
    }
    sizes = [int(np.prod(s)) for s in shapes.values()]
    offsets = dict(zip(shapes, np.cumsum([0] + sizes[:-1]).tolist()))
    assert offsets["g3"] < chunk < offsets["g4"]
    assert offsets["big"] < 2 * chunk < offsets["tail"]
    rng = Rng(11)
    params = {k: rng.normal(s, 0.0, 1.0) for k, s in shapes.items()}
    params["fortran"] = np.asfortranarray(params["fortran"])
    ref = {k: v.copy(order="K") for k, v in params.items()}
    state = AdamState(params)
    ref_state = types.SimpleNamespace(
        t=0, m={k: np.zeros_like(v) for k, v in ref.items()},
        v={k: np.zeros_like(v) for k, v in ref.items()})
    start = {k: _bits(v) for k, v in params.items()}
    arrays = {k: v for k, v in params.items()}
    cfg = TrainConfig(learning_rate=1e-2)
    for step in range(4):
        grads = {k: rng.normal(s, 0.0, 1.0) for k, s in shapes.items()}
        grads["g2"] = np.asfortranarray(grads["g2"])   # any layout is read
        before = {k: _bits(g) for k, g in grads.items()}
        norm = adam_step(params, grads, state, cfg, clip_norm=clip_norm)
        _reference_adam_step(ref, grads if clip_norm is None else
                             clip_gradients(grads, clip_norm), ref_state, cfg)
        assert _bits(np.float64(norm)) == _bits(np.float64(np.sqrt(
            sum(float(np.sum(g * g)) for g in grads.values()))))
        assert all(_bits(g) == before[k] for k, g in grads.items())
    assert state.t == ref_state.t == 4
    # m and v are the two rows of one (2, total) buffer, each parameter's
    # segment at its offset in dict order
    buf = state.m["w0"].base
    assert buf.shape == (2, sum(sizes))
    address = buf.__array_interface__["data"][0]
    for k, p in params.items():
        assert p is arrays[k], k                        # updated in place
        assert _bits(p) == _bits(ref[k]), k
        assert _bits(state.m[k]) == _bits(ref_state.m[k]), k
        assert _bits(state.v[k]) == _bits(ref_state.v[k]), k
        for row, moment in enumerate((state.m[k], state.v[k])):
            assert moment.base is buf, k
            # numpy may move an empty view's pointer to the buffer's start
            assert not p.size or moment.__array_interface__["data"][0] \
                == address + 8 * (row * buf.shape[1] + offsets[k]), k
            assert moment.shape == p.shape, k
            assert moment.flags.c_contiguous == p.flags.c_contiguous, k
            assert moment.flags.f_contiguous == p.flags.f_contiguous, k
        if p.size:
            assert _bits(p) != start[k], k


def test_adam_rejects_a_parameter_that_is_not_contiguous():
    # ravel would copy a strided view, so its update would be lost
    params = {"a": np.zeros(3), "strided": np.zeros((4, 6))[:, ::2]}
    with pytest.raises(ValueError, match="strided"):
        AdamState(params)


@pytest.mark.parametrize("change, error, match", [
    (lambda p, g: g.pop("c"), ValueError, r"no gradient for \['c'\]"),
    (lambda p, g: g.update(d=np.ones(2)), ValueError,
     r"unknown gradients \['d'\]"),
    # an unplanned parameter would count toward the norm, but never move
    (lambda p, g: (p.update(d=np.ones(2)), g.update(d=np.ones(2))),
     ValueError, r"unknown parameters \['d'\]"),
    (lambda p, g: g.update(c=np.ones((1, 3))), ShapeError,
     r"c is planned as \(3, 3\), the parameter is \(3, 3\), its gradient "
     r"\(1, 3\)"),
    # the flat plan would update a larger array's first elements only,
    # and a copy of a re-laid-out one
    (lambda p, g: (p.update(c=np.ones((3, 4))), g.update(c=np.ones((3, 4)))),
     ShapeError, r"the parameter is \(3, 4\)"),
    (lambda p, g: p.update(c=np.asfortranarray(p["c"])), ValueError,
     "parameter c is no longer C-contiguous"),
], ids=["missing", "unknown", "unplanned_parameter", "shape",
        "parameter_shape", "parameter_order"])
def test_adam_checks_its_inputs_before_writing(change, error, match):
    # "a" spans two chunks, so a failure inside the chunk loop would have
    # updated its first chunk already
    rng = Rng(12)
    shapes = {"a": (40, 900), "b": (7,), "c": (3, 3)}
    params = {k: rng.normal(s, 0.0, 1.0) for k, s in shapes.items()}
    state = AdamState(params)
    cfg = TrainConfig()
    adam_step(params, {k: rng.normal(s, 0.0, 1.0)
                       for k, s in shapes.items()}, state, cfg)
    grads = {k: rng.normal(s, 0.0, 1.0) for k, s in shapes.items()}
    change(params, grads)
    saved = [{k: _bits(d[k]) for k in shapes}
             for d in (params, state.m, state.v)]
    for clip_norm in (None, 1e-3):
        with pytest.raises(error, match=match):
            adam_step(params, grads, state, cfg, clip_norm=clip_norm)
    assert state.t == 1
    for d, bits in zip((params, state.m, state.v), saved):
        assert {k: _bits(d[k]) for k in shapes} == bits


def test_adam_rejects_a_non_positive_clip_norm():
    params = {"a": np.zeros(3)}
    with pytest.raises(ValueError, match="clip_norm"):
        adam_step(params, {"a": np.ones(3)}, AdamState(params), TrainConfig(),
                  clip_norm=0.0)


@pytest.mark.parametrize("name, value", [
    ("head.W", np.nan), ("block0.R", np.inf), ("embed.b", -np.inf),
])
def test_adam_names_the_gradient_that_is_not_finite(name, value):
    # a NaN once made the clip scale NaN, so every gradient read as NaN and
    # the first, embed.W, was blamed
    model = Forecaster(ModelConfig(**TINY), seed=0)
    x = Rng(1).normal((4, 16, 1), 0.0, 1.0)
    yhat, tape = model.forward(x)
    grads = model.backward(tape, np.ones_like(yhat))
    grads[name].flat[1] = value
    state = AdamState(model.params)
    saved = {k: _bits(p) for k, p in model.params.items()}
    for clip_norm in (1e-3, None):
        with pytest.raises(FloatingPointError,
                           match=rf"^non-finite gradient in {re.escape(name)}$"):
            adam_step(model.params, grads, state, TrainConfig(),
                      clip_norm=clip_norm)
    assert state.t == 0
    assert {k: _bits(p) for k, p in model.params.items()} == saved


def test_adam_non_finite_last_gradient_changes_nothing():
    rng = Rng(8)
    shapes = {"a": (40, 900), "b": (7,), "c": (3, 4)}
    params = {k: rng.normal(s, 0.0, 1.0) for k, s in shapes.items()}
    state = AdamState(params)
    cfg = TrainConfig()
    for _ in range(2):
        adam_step(params, {k: rng.normal(s, 0.0, 1.0)
                           for k, s in shapes.items()}, state, cfg)
    saved = [{k: _bits(d[k]) for k in shapes}
             for d in (params, state.m, state.v)]
    grads = {k: rng.normal(s, 0.0, 1.0) for k, s in shapes.items()}
    grads["c"][2, 3] = np.nan
    with pytest.raises(FloatingPointError, match="c"):
        adam_step(params, grads, state, cfg)
    assert state.t == 2
    for d, bits in zip((params, state.m, state.v), saved):
        assert {k: _bits(d[k]) for k in shapes} == bits


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(beta1=0.999, beta2=0.9)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


# -- training loop ----------------------------------------------------------

def test_train_zero_epochs_returns_initial_model():
    ds = small_dataset()
    model = Forecaster(ModelConfig(**TINY), seed=0)
    before = {k: v.copy() for k, v in model.params.items()}
    model, history = train(model, ds, TrainConfig(max_epochs=0))
    assert history == []
    for k in before:
        assert np.array_equal(model.params[k], before[k])


def test_train_requires_non_empty_splits():
    ds = small_dataset()
    ds.starts["val"] = np.empty(0, dtype=np.int64)
    with pytest.raises(ValueError):
        train(Forecaster(ModelConfig(**TINY), seed=0), ds, TrainConfig())


def test_single_step_decreases_batch_loss():
    # tiny lr on one fixed batch must reduce that batch's loss
    ds = small_dataset()
    x, y = ds.batch("train", range(16))
    for seed in range(10):
        model = Forecaster(ModelConfig(**TINY), seed=seed)
        yhat, tape = model.forward(x)
        loss0, gy = mse_loss(yhat, y)
        grads = model.backward(tape, gy)
        state = AdamState(model.params)
        adam_step(model.params, grads, state,
                  TrainConfig(learning_rate=1e-5))
        loss1, _ = mse_loss(model.forward(x)[0], y)
        assert loss1 < loss0


def test_train_improves_and_restores_best_epoch():
    ds = small_dataset()
    model = Forecaster(ModelConfig(**TINY), seed=0)
    model, history = train(model, ds, TrainConfig(max_epochs=4, patience=4))
    assert len(history) >= 1
    # returned parameters come from the best-val epoch
    val = evaluate(model, ds, "val", 32).mse
    best = min(rec.val_mse for rec in history)
    assert val == pytest.approx(best, rel=1e-9)


def test_history_val_mse_is_evaluate_at_train_batch_size():
    ds = small_dataset()
    cfg = TrainConfig(max_epochs=1, patience=1, batch_size=24)
    model, history = train(Forecaster(ModelConfig(**TINY), seed=0), ds, cfg)
    assert history[0].val_mse == evaluate(model, ds, "val", cfg.batch_size).mse


def test_train_scores_only_the_val_split_in_eval_mode(monkeypatch):
    # per epoch: one evaluate of the val split, its predict calls covering
    # n_val windows in all (the call count depends on the span rule)
    ds = small_dataset()
    epochs = []
    predict, evaluate_ = Forecaster.predict, training.evaluate

    def counting_predict(self, x):
        epochs[-1].append(x.shape[0])
        return predict(self, x)

    def marking_evaluate(model, dataset, split, batch_size):
        assert split == "val"
        epochs.append([])
        return evaluate_(model, dataset, split, batch_size)

    monkeypatch.setattr(Forecaster, "predict", counting_predict)
    monkeypatch.setattr(training, "evaluate", marking_evaluate)
    cfg = TrainConfig(max_epochs=3, patience=3, batch_size=24)
    _, history = train(Forecaster(ModelConfig(**TINY), seed=0), ds, cfg)
    n_val = ds.n_windows("val")
    assert len(epochs) == len(history) == 3
    assert [sum(calls) for calls in epochs] == [n_val] * 3


def test_history_train_mse_is_window_weighted_step_loss(monkeypatch):
    ds = small_dataset()
    steps = []

    def recording_mse_loss(yhat, y):
        loss, grad = mse_loss(yhat, y)
        steps.append((loss, y.shape[0]))
        return loss, grad

    monkeypatch.setattr(training, "mse_loss", recording_mse_loss)
    cfg = TrainConfig(max_epochs=3, patience=3, batch_size=24)
    model = Forecaster(ModelConfig(**{**TINY, "dropout_rate": 0.1}), seed=0)
    _, history = train(model, ds, cfg)
    n_train = ds.n_windows("train")
    per_epoch = math.ceil(n_train / cfg.batch_size)
    assert len(steps) == len(history) * per_epoch
    for rec in history:
        epoch = steps[rec.epoch * per_epoch:(rec.epoch + 1) * per_epoch]
        assert sum(b for _, b in epoch) == n_train
        expected = sum(loss * b for loss, b in epoch) / n_train
        assert rec.train_mse == pytest.approx(expected, rel=1e-12)


def test_train_deterministic_given_seed():
    ds = small_dataset()
    results = []
    for _ in range(2):
        model = Forecaster(ModelConfig(**TINY), seed=3)
        model, _ = train(model, ds, TrainConfig(max_epochs=2, seed=3))
        results.append(evaluate(model, ds, "test").mse)
    assert results[0] == results[1]


def test_block_structure_survives_training():
    # training updates the per-head blocks in place: each cell still reads
    # the arrays the optimizer moved, in their (H, s, 4s) layout
    ds = small_dataset()
    model = Forecaster(ModelConfig(**TINY), seed=1)
    before = model.params["block0.R"].copy()
    model, _ = train(model, ds, TrainConfig(max_epochs=2))
    cell = model.blocks[0]
    for name, arr in cell.as_dict("block0.").items():
        assert model.params[name] is arr
    assert cell.R.shape == (2, 4, 16)
    assert not np.array_equal(cell.R, before)


def test_train_with_dropout_runs():
    ds = small_dataset()
    cfg = ModelConfig(**{**TINY, "dropout_rate": 0.1})
    model = Forecaster(cfg, seed=0)
    model, history = train(model, ds, TrainConfig(max_epochs=1))
    assert len(history) == 1
    assert np.isfinite(history[0].train_mse)


@pytest.mark.parametrize("fail_epoch", [0, 1])
def test_train_stops_on_a_non_finite_loss_and_restores(monkeypatch,
                                                       fail_epoch):
    # the loss of epoch fail_epoch's second batch is NaN: train keeps the
    # best epoch's parameters (epoch 0, as a run of one epoch leaves them),
    # or the initial ones when no epoch finished, and warns once
    ds = small_dataset()
    cfg = ModelConfig(**TINY)
    train_cfg = TrainConfig(max_epochs=3)
    per_epoch = math.ceil(ds.n_windows("train") / train_cfg.batch_size)
    initial = Forecaster(cfg, seed=0).params
    reference, _ = train(Forecaster(cfg, seed=0), ds,
                         TrainConfig(max_epochs=1))
    expected = initial if fail_epoch == 0 else reference.params
    calls = []
    real_loss = training.mse_loss

    def loss_nan_once(yhat, y):
        calls.append(None)
        loss, grad = real_loss(yhat, y)
        return (np.nan if len(calls) == fail_epoch * per_epoch + 2
                else loss), grad

    monkeypatch.setattr(training, "mse_loss", loss_nan_once)
    kept = "the initial parameters" if fail_epoch == 0 \
        else "the parameters of epoch 0"
    with pytest.warns(UserWarning) as record:
        model, history = train(Forecaster(cfg, seed=0), ds, train_cfg)
    assert [str(w.message) for w in record] == [
        f"training loss not finite in epoch {fail_epoch}; training stopped, "
        f"keeping {kept}"]
    assert len(calls) == fail_epoch * per_epoch + 2
    assert len(history) == fail_epoch
    for name, arr in model.params.items():
        assert np.array_equal(arr, expected[name]), name


# -- evaluation -------------------------------------------------------------

class _ConstantOffsetModel:
    """Predicts the target plus a fixed offset; evaluation test double.
    At one gate element a window, evaluate scores a small split in one
    predict call."""

    gate_elements_per_window = 1

    def __init__(self, dataset, split, offset):
        self.dataset, self.split, self.offset = dataset, split, offset
        self._cursor = 0

    def predict(self, x):
        n = x.shape[0]
        _, y = self.dataset.batch(self.split,
                                  np.arange(self._cursor, self._cursor + n))
        self._cursor += n
        return y + self.offset


def test_evaluate_perfect_predictor():
    ds = small_dataset()
    m = evaluate(_ConstantOffsetModel(ds, "test", 0.0), ds, "test")
    assert m.mse == 0.0 and m.mae == 0.0


def test_evaluate_constant_offset():
    ds = small_dataset()
    m = evaluate(_ConstantOffsetModel(ds, "test", 1.0), ds, "test")
    assert m.mse == pytest.approx(1.0)
    assert m.mae == pytest.approx(1.0)


def test_evaluate_matches_brute_force():
    ds = small_dataset()
    model = Forecaster(ModelConfig(**TINY), seed=2)
    m = evaluate(model, ds, "test", batch_size=7)
    se = ae = cnt = 0.0
    for i in range(ds.n_windows("test")):
        x, y = ds.batch("test", [i])
        yhat, _ = model.forward(x)
        d = yhat - y
        se += np.sum(d * d); ae += np.sum(np.abs(d)); cnt += d.size
    assert m.mse == pytest.approx(se / cnt, abs=1e-12)
    assert m.mae == pytest.approx(ae / cnt, abs=1e-12)


def _per_batch_score(dataset, split, batch_size, predict):
    """The one-call-per-batch loop evaluate ran before it grouped batches
    into a call: the reference of the differential tests."""
    n = dataset.n_windows(split)
    se, ae, count = 0.0, 0.0, 0
    for lo in range(0, n, batch_size):
        x, y = dataset.batch(split, range(lo, min(lo + batch_size, n)))
        diff = predict(x) - y
        se += float(np.sum(diff * diff))
        ae += float(np.sum(np.abs(diff)))
        count += y.size
    return training.Metrics(mse=se / count, mae=ae / count, n_samples=n)


def _recorded_calls(monkeypatch, fake=False):
    """The window count of every Forecaster.predict call; with fake, predict
    returns zeros of the target's shape without running the model."""
    calls = []
    predict = Forecaster.predict

    def recording_predict(self, x):
        calls.append(x.shape[0])
        if fake:
            c = self.config
            return np.zeros((x.shape[0], c.horizon, c.n_channels))
        return predict(self, x)

    monkeypatch.setattr(Forecaster, "predict", recording_predict)
    return calls


#: the configs/sinusoid_tiny.json model and series
SINUSOID_TINY = dict(lookback=96, horizon=24, n_channels=1, patch_size=8,
                     embed_dim=16, n_blocks=1, n_heads=2, dropout_rate=0.1)
#: acceptance criterion 6's channel-mixed model (the mixed_fit shape)
MIXED = dict(lookback=96, horizon=96, n_channels=8, patch_size=16,
             embed_dim=32, n_blocks=1, n_heads=2, dropout_rate=0.0,
             channel_strategy="mixed")
#: configs/weather_extended.json's model
WEATHER = dict(lookback=336, horizon=96, n_channels=21, patch_size=16,
               patch_stride=16, embed_dim=128, n_blocks=1, n_heads=4,
               dropout_rate=0.2)


def _sinusoid_split(model_cfg, length, noise):
    raw = make_synthetic("sinusoid", {"length": length, "period": 24,
                                      "noise_std": noise,
                                      "channels": model_cfg["n_channels"]},
                         seed=1)
    return split_and_standardize(raw, model_cfg["lookback"],
                                 model_cfg["horizon"])


@pytest.mark.parametrize("shape, length, noise, batch_size, splits, grouped", [
    (SINUSOID_TINY, 10000, 0.1, 64, ("train", "val", "test"), True),
    (MIXED, 1000, 0.6, 32, ("train", "test"), False),
], ids=["sinusoid_tiny", "mixed"])
def test_evaluate_scores_the_bytes_of_one_call_per_batch(
        monkeypatch, shape, length, noise, batch_size, splits, grouped):
    ds = _sinusoid_split(shape, length, noise)
    model = Forecaster(ModelConfig(**shape), seed=4)
    for split in splits:
        n = ds.n_windows(split)
        assert n % batch_size != 0
        want = _per_batch_score(ds, split, batch_size, model.predict)
        with monkeypatch.context() as patch:
            calls = _recorded_calls(patch)
            got = evaluate(model, ds, split, batch_size)
        assert (got.mse.hex(), got.mae.hex(), got.n_samples) == \
            (want.mse.hex(), want.mae.hex(), want.n_samples)
        assert sum(calls) == n
        # every call but the last spans the same whole number of batches
        assert len(set(calls[:-1])) <= 1 and calls[0] % batch_size == 0
        assert (calls[0] > batch_size) == grouped


@pytest.mark.parametrize("shape, length, batch_size", [
    (WEATHER, 1200, 64), (MIXED, 1000, 32), (MIXED, 1000, 64),
], ids=["weather_64", "mixed_32", "mixed_64"])
def test_evaluate_makes_one_call_per_batch_at_wide_shapes(
        monkeypatch, shape, length, batch_size):
    ds = _sinusoid_split(shape, length, 0.3)
    model = Forecaster(ModelConfig(**shape), seed=0)
    calls = _recorded_calls(monkeypatch, fake=True)
    evaluate(model, ds, "test", batch_size)
    n = ds.n_windows("test")
    assert calls == [min(batch_size, n - lo) for lo in range(0, n, batch_size)]


@pytest.mark.parametrize("batch_size", [0, -3])
def test_evaluate_rejects_batch_size_below_one(batch_size):
    ds = small_dataset()
    with pytest.raises(ValueError, match="batch_size"):
        evaluate(Forecaster(ModelConfig(**TINY), seed=0), ds, "test",
                 batch_size)


def test_evaluate_empty_split_rejected():
    ds = small_dataset()
    ds.starts["test"] = np.empty(0, dtype=np.int64)
    with pytest.raises(ValueError):
        evaluate(Forecaster(ModelConfig(**TINY), seed=0), ds, "test")


@pytest.mark.parametrize("baseline", [persistence_metrics, train_mean_metrics])
def test_baselines_reject_empty_split(baseline):
    ds = small_dataset()
    ds.starts["test"] = np.empty(0, dtype=np.int64)
    with pytest.raises(ValueError):
        baseline(ds, "test")


def test_metrics_monotone_under_zero_error_window():
    # appending a perfectly predicted window cannot raise either metric
    se, ae, cnt = 10.0, 4.0, 8
    new_mse = (se + 0.0) / (cnt + 4)
    new_mae = (ae + 0.0) / (cnt + 4)
    assert new_mse <= se / cnt
    assert new_mae <= ae / cnt


def test_baselines_are_finite_and_positive():
    ds = small_dataset()
    p = persistence_metrics(ds, "test")
    m = train_mean_metrics(ds, "test")
    assert p.mse > 0 and np.isfinite(p.mse)
    assert m.mse > 0 and np.isfinite(m.mse)


def test_history_csv_round_trip(tmp_path):
    from pslstm.training import EpochRecord
    path = tmp_path / "history.csv"
    write_history_csv([EpochRecord(0, 0.5, 0.6, 1.0),
                       EpochRecord(1, 0.4, 0.55, 1.1)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_mse,val_mse,seconds"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == 0.5
