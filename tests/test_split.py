"""Split against serial: every output keeps the bytes of the plain loop.

tensorops.for_blocks runs the two halves of a list of independent blocks
at once, on the caller's thread and one worker thread, when there are at
least 2 blocks (4 in the layer norm) and 2 CPUs. The serial side patches its CPU count to 1, the
split side to 2 (so that the split runs on a one-CPU machine too), and a
patched _CHUNK makes small shapes span several row blocks or Adam chunks.
Compared byte for byte: the cell's forward h and whole tape, its
gradients and predict in every GateMode, raw overflow included; the layer
norm forward and backward; a whole model step; Adam's params, m, v and
returned norm, clipped and unclipped.
"""

from unittest import mock

import numpy as np
import pytest

from pslstm import cells, tensorops, training
from pslstm.cells import (GateMode, slstm_backward, slstm_forward,
                          slstm_predict)
from pslstm.model import Forecaster, ModelConfig
from pslstm.tensorops import Rng
from pslstm.training import AdamState, TrainConfig, adam_step
from test_kernel import ALL_MODES, build, mode_id


def on_cpus(n, run, chunk):
    """run() with for_blocks seeing n CPUs and _CHUNK set to chunk; with
    n = 2, asserts that at least one call split its blocks."""
    with mock.patch.object(tensorops, "_cpus", lambda: n), \
            mock.patch.object(tensorops, "_CHUNK", chunk), \
            mock.patch.object(tensorops, "split_point",
                              wraps=tensorops.split_point) as split:
        out = run()
    assert split.called == (n == 2)
    return out


def bytes_of(arrays):
    return [None if a is None else np.ascontiguousarray(a).tobytes()
            for a in arrays]


def cell_case(mode, forget_bias):
    """7 rows and 5 steps from a random initial state, and a gradient;
    forget_bias 150 sends raw mode into overflow."""
    case = dict(batch=7, steps=5, d_in=3, d=4, n_heads=2, seed=41, mode=mode,
                init="state_with_m" if mode.stabilized else "state")
    params, x, init, _ = build(case, forget_bias)
    return params, x, init, Rng(42).normal((7, 5, 4))


def cell_outputs(params, x, init, grad, mode):
    h, tape = slstm_forward(params, x, init, mode)
    out = bytes_of([h, tape.x, tape.gates, tape.c, tape.n, tape.h,
                    tape.dlog_i, tape.dlog_f])
    grads, grad_x = slstm_backward(params, tape, grad)
    out += bytes_of([grads[k] for k in sorted(grads)] + [grad_x])
    return out + bytes_of([slstm_predict(params, x, mode)])


@pytest.mark.parametrize("mode, forget_bias", [
    *[pytest.param(m, None, id=mode_id(m)) for m in ALL_MODES],
    *[pytest.param(m, 150.0, id=mode_id(m) + "-overflow")
      for m in ALL_MODES if not m.stabilized]])
def test_cell_split_matches_serial(mode, forget_bias):
    # 7 rows in blocks of 2: the caller runs rows 0-3, the worker 4-6
    case = cell_case(mode, forget_bias)
    chunk = 2 * 4 * 4
    with np.errstate(all="ignore"):     # raw overflow reaches the backward
        serial = on_cpus(1, lambda: cell_outputs(*case, mode), chunk)
        split = on_cpus(2, lambda: cell_outputs(*case, mode), chunk)
    assert split == serial
    if forget_bias is not None and mode == GateMode(stabilized=False):
        h = np.frombuffer(serial[0])
        assert not np.isfinite(h).all()     # the overflow was reached


@pytest.mark.parametrize("dropout", [False, True])
def test_layer_norm_split_matches_serial(dropout):
    # 22 rows in blocks of 4 (1,024 elements, long enough that numpy lets
    # the two threads run at once): six blocks, three a side
    cfg = ModelConfig(lookback=16, horizon=4, n_channels=2, patch_size=4,
                      embed_dim=64, n_heads=4, dropout_rate=0.25)
    model = Forecaster(cfg, seed=0)
    rng = Rng(21)
    N, E = cfg.n_patches, model.width
    u = rng.normal((22, N, E), 0.0, 2.0)
    h_seq = rng.normal((N, 22, E)).transpose(1, 0, 2)
    model.params["block0.ln_gain"][...] = rng.normal((E,), 1.0, 0.3)
    model.params["block0.ln_bias"][...] = rng.normal((E,), 0.0, 0.3)
    keep = rng.uniform(u.shape) >= 0.25 if dropout else None
    g_u = rng.normal(u.shape)

    def run():
        xhat, std, out = model._layer_norm(0, u, h_seq, keep)
        got = bytes_of([xhat, std, out])
        grads, g_r = model._layer_norm_backward(0, g_u.copy(), xhat, std, keep)
        got += bytes_of([grads[k] for k in sorted(grads)] + [g_r])
        return got + bytes_of([model._layer_norm(0, u.copy(), h_seq,
                                                 cache=False)])

    assert on_cpus(2, run, 4 * N * E) == on_cpus(1, run, 4 * N * E)


@pytest.mark.parametrize("strategy", ["independent", "mixed"])
def test_model_step_split_matches_serial(strategy):
    # 5 windows x 3 channels: 15 independent rows, or 5 mixed ones, in
    # blocks of 2; dropout masks, cell, layer norm and predict
    cfg = ModelConfig(lookback=16, horizon=4, n_channels=3, patch_size=4,
                      embed_dim=8, n_blocks=2, n_heads=2, dropout_rate=0.2,
                      channel_strategy=strategy)
    x = Rng(3).normal((5, 16, 3))
    g_y = Rng(4).normal((5, 4, 3))

    def run():
        model = Forecaster(cfg, seed=1)
        yhat, tape = model.forward(x, training=True, dropout_rng=Rng(9))
        got = bytes_of([yhat, *tape.dropout_masks])
        grads = model.backward(tape, g_y)
        return got + bytes_of(list(grads.values()) + [model.predict(x)])

    width = 8 * (3 if strategy == "mixed" else 1)
    chunk = 2 * cfg.n_patches * width       # 2 rows a block, cell and norm
    assert on_cpus(2, run, chunk) == on_cpus(1, run, chunk)


@pytest.mark.parametrize("clip_norm", [None, 1e-3, 1e6],
                         ids=["unclipped", "clipped", "below"])
def test_adam_split_matches_serial(clip_norm):
    # 4,096-element chunks, long enough that numpy lets the two threads run
    # at once: 41,149 elements in 11 chunks, with small arrays packed into
    # shared chunks and others spanning several, an F-ordered one too
    shapes = {"a": (3,), "b": (100, 300), "c": (7000,), "d": (200, 20),
              "e": (), "f": (145,)}
    rng = Rng(8)
    start = {k: rng.normal(s) for k, s in shapes.items()}
    start["d"] = np.asfortranarray(start["d"])
    grads = [{k: rng.normal(s) for k, s in shapes.items()} for _ in range(3)]

    def run():
        params = {k: v.copy(order="K") for k, v in start.items()}
        with mock.patch.object(training, "_CHUNK", 4096):
            state = AdamState(params)
        norms = [adam_step(params, g, state, TrainConfig(learning_rate=1e-2),
                           clip_norm=clip_norm) for g in grads]
        assert len(state._plan) == 11
        return (bytes_of(np.float64(n) for n in norms)
                + bytes_of(params[k] for k in shapes)
                + bytes_of(state.m[k] for k in shapes)
                + bytes_of(state.v[k] for k in shapes))

    assert on_cpus(2, run, 4096) == on_cpus(1, run, 4096)


@pytest.mark.parametrize("mode", [m for m in ALL_MODES if m.stabilized],
                         ids=mode_id)
def test_non_finite_state_in_the_worker_half_raises_after_both_halves(mode):
    # a NaN input in row 6, the worker's last block: the split raises the
    # serial loop's FloatingPointError, once every block has run
    params, x, init, _ = cell_case(mode, None)
    x[6, 2, 0] = np.nan
    real, ended = cells._forward_rows, []

    def recording(pre, *args, **kwargs):
        try:
            return real(pre, *args, **kwargs)
        finally:
            ended.append(pre.shape[1])

    errors = []
    for cpus in (1, 2):
        ended.clear()
        with mock.patch.object(cells, "_forward_rows", recording):
            with pytest.raises(FloatingPointError) as raised:
                on_cpus(cpus, lambda: slstm_forward(params, x, init, mode),
                        2 * 4 * 4)
        errors.append(str(raised.value))
        assert sorted(ended) == [1, 2, 2, 2]
    assert errors[0] == errors[1]
