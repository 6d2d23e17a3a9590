"""Split against serial: every output keeps the bytes of the plain loop.

tensorops.for_blocks runs the two halves of a list of independent blocks
at once, on the caller's thread and one worker thread, when there are at
least 2 blocks (4 in the layer norm) and 2 CPUs. tensorops.matmul_rows
splits a product's output rows the same way when each half holds
_GEMM_SPLIT_WORK multiply-adds. The serial side patches its CPU count to
1, the split side to 2 (so that the split runs on a one-CPU machine too),
and a patched _CHUNK makes small shapes span several row blocks or Adam
chunks. Compared byte for byte: the cell's forward h and whole tape, its
gradients and predict in every GateMode, raw overflow included; the layer
norm forward and backward; a whole model step, at a small shape and at
the Weather shape; predict's units, split over the two threads, against
forward; Adam's params, m, v and returned norm, clipped and unclipped;
every product routed through matmul_rows, split, against the whole
product, at the shipped shapes and on both sides of the work bound.
"""

import threading
from unittest import mock

import numpy as np
import pytest

from pslstm import cells, model as model_module, tensorops, training
from pslstm.cells import (GateMode, slstm_backward, slstm_forward,
                          slstm_predict)
from pslstm.model import Forecaster, ModelConfig
from pslstm.tensorops import Rng, matmul_rows
from pslstm.training import AdamState, TrainConfig, adam_step, mse_loss
from test_kernel import ALL_MODES, build, mode_id
from test_model import MIXED_SHAPE, TINY_SHAPE, WEATHER_SHAPE


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


@pytest.mark.parametrize("n_blocks", [1, 2])
def test_weather_model_step_split_matches_serial(n_blocks):
    # configs/weather_extended.json's model and batch: every routed GEMM
    # splits by rows, besides the cell's row blocks with their bias adds,
    # the copies of the cell's input rows, the dropout draws and
    # multiplies, the embedding bias, the layer norm and Adam; with two
    # blocks a mask draw and a cell bias sit between two cells
    cfg = ModelConfig(**WEATHER_SHAPE, n_blocks=n_blocks)
    x = Rng(3).normal((64, cfg.lookback, cfg.n_channels))
    y = Rng(4).normal((64, cfg.horizon, cfg.n_channels))

    def run():
        model = Forecaster(cfg, seed=1)
        state = AdamState(model.params)
        rng = Rng(9)
        yhat, tape = model.forward(x, training=True, dropout_rng=rng)
        # the dropout stream's next draw tells where the masks left it
        got = bytes_of([yhat, *tape.dropout_masks, rng.uniform((3,))])
        grads = model.backward(tape, mse_loss(yhat, y)[1])
        got += bytes_of(grads.values())
        norm = adam_step(model.params, grads, state, TrainConfig(),
                         clip_norm=1.0)
        return got + bytes_of([np.float64(norm), *model.params.values(),
                               model.predict(x[:16])])

    chunk = tensorops._CHUNK
    assert on_cpus(2, run, chunk) == on_cpus(1, run, chunk)


@pytest.mark.parametrize("shape, windows, n_units", [
    (WEATHER_SHAPE, 64, 21), (WEATHER_SHAPE, 16, 5), (MIXED_SHAPE, 64, 2),
    (MIXED_SHAPE, 32, 1), (TINY_SHAPE, 192, 1)],
    ids=["weather_64", "weather_16", "mixed_64", "mixed_32", "tiny_192"])
def test_predict_units_are_runs_of_cell_blocks_that_fill_both_gemms(
        shape, windows, n_units):
    # 16 Weather windows are five 64-row blocks and one of 16 rows, which
    # joins the last unit; sinusoid_tiny's 192-window call is one unit
    cfg = ModelConfig(**shape)
    model = Forecaster(cfg, seed=0)
    n_rows = windows * cfg.n_channels // cfg.channels_per_row
    units = model._units(n_rows)
    assert len(units) == n_units
    assert [u.start for u in units] == [0] + [u.stop for u in units[:-1]]
    assert units[-1].stop == n_rows
    edges = {blk.start for blk in tensorops.row_slices((n_rows,
                                                        4 * model.width))}
    assert {u.start for u in units} <= edges
    S, d = cfg.n_patches, model.width
    for u in units if n_units > 1 else ():
        rows = u.stop - u.start
        assert rows * S * d * 4 * d >= tensorops._GEMM_SPLIT_WORK
        assert rows * S * d * model.out_width >= tensorops._GEMM_SPLIT_WORK
    if shape is WEATHER_SHAPE and windows == 64:
        assert [u.stop - u.start for u in units] == [64] * 21


@pytest.mark.parametrize("n_blocks", [1, 2])
def test_weather_predict_in_units_matches_forward_split_and_serial(n_blocks):
    # 21 units of one 64-row block, split 11 / 10 over the two threads
    cfg = ModelConfig(**WEATHER_SHAPE, n_blocks=n_blocks)
    model = Forecaster(cfg, seed=1)
    x = Rng(3).normal((64, cfg.lookback, cfg.n_channels))
    chunk = tensorops._CHUNK
    whole = on_cpus(1, lambda: model.forward(x)[0].tobytes(), chunk)
    assert on_cpus(2, lambda: model.predict(x).tobytes(), chunk) == whole
    assert on_cpus(1, lambda: model.predict(x).tobytes(), chunk) == whole


@pytest.mark.parametrize("shape, windows, splits", [
    (TINY_SHAPE, 192, False), (MIXED_SHAPE, 32, True)],
    ids=["tiny_192", "mixed_32"])
def test_a_one_unit_predict_runs_in_the_caller(shape, windows, splits):
    # both blocks of the one unit run on the caller's thread, where the
    # mixed call's cell and head products still split
    cfg = ModelConfig(**shape, n_blocks=2)
    model = Forecaster(cfg, seed=0)
    x = Rng(3).normal((windows, cfg.lookback, cfg.n_channels))
    threads = []

    def recording(*args):
        threads.append(threading.get_ident())
        return slstm_predict(*args)

    with mock.patch.object(model_module, "slstm_predict", recording), \
            mock.patch.object(tensorops, "_cpus", lambda: 2), \
            mock.patch.object(tensorops, "split_point",
                              wraps=tensorops.split_point) as split:
        got = model.predict(x)
    assert threads == [threading.get_ident()] * 2
    assert split.called == splits
    assert got.tobytes() == model.forward(x)[0].tobytes()


def test_non_finite_state_in_a_late_unit_reaches_the_caller():
    # a NaN in the last window's first channel: its row, 1,323 of 1,344,
    # is in the last of the 21 Weather units, the worker's, and the
    # stabilized cell raises there once its block ends
    cfg = ModelConfig(**WEATHER_SHAPE)
    model = Forecaster(cfg, seed=1)
    x = Rng(3).normal((64, cfg.lookback, cfg.n_channels))
    x[63, 5, 0] = np.nan
    errors = []
    for cpus in (1, 2):
        with mock.patch.object(model_module, "slstm_predict",
                               wraps=slstm_predict) as cell, \
                pytest.raises(FloatingPointError) as raised:
            on_cpus(cpus, lambda: model.predict(x), tensorops._CHUNK)
        # every unit ran: the caller's half does not stop for the worker's
        assert cell.call_count == 21
        errors.append(str(raised.value))
    assert errors[0] == errors[1]


def checked_matmul_rows(log: list, split: mock.Mock):
    """matmul_rows that asserts its result has the bytes of np.matmul's
    whole product, and logs whether each call split: whether it called
    split, the caller's Mock of tensorops.for_blocks, patched in once.
    Only a call that splits calls it, so the log holds while predict's
    units run whole products on two threads (a patch entered and left per
    call on both threads could leave the Mock in the module)."""
    def call(a, b, out=None):
        whole = np.matmul(a, b)
        calls = split.call_count
        got = matmul_rows(a, b, out)
        assert got.tobytes() == whole.tobytes(), (a.shape, b.shape)
        log.append(split.call_count > calls)
        return got
    return call


# the matmul_rows calls of forward(training=True), backward and predict, in
# order: embedding, input GEMM, head; head.W gradient, head input gradient,
# W gradient, cell input gradient, embed.W gradient; embedding, then per
# unit of predict (one at the tiny and mixed shapes, 21 at the Weather
# shape, run inside a split and so unsplit) input GEMM and head
@pytest.mark.parametrize("shape, batch, splits", [
    (TINY_SHAPE, 64, [False] * 11),
    (MIXED_SHAPE, 32, [False, True, True, True, True, True, True, False,
                       False, True, True]),
    (WEATHER_SHAPE, 64, [True] * 9 + [False] * 42),
], ids=["tiny", "mixed", "weather"])
def test_routed_products_split_to_the_bytes_of_the_whole_product(
        shape, batch, splits):
    cfg = ModelConfig(**shape)
    model = Forecaster(cfg, seed=0)
    x = Rng(5).normal((batch, cfg.lookback, cfg.n_channels))
    g_y = Rng(6).normal((batch, cfg.horizon, cfg.n_channels))
    log, split = [], mock.Mock(wraps=tensorops.for_blocks)
    check = checked_matmul_rows(log, split)
    with mock.patch.object(tensorops, "_cpus", lambda: 2), \
            mock.patch.object(tensorops, "for_blocks", split), \
            mock.patch.object(cells, "matmul_rows", check), \
            mock.patch.object(model_module, "matmul_rows", check):
        yhat, tape = model.forward(x, training=True, dropout_rng=Rng(7))
        model.backward(tape, g_y)
        model.predict(x)
    assert log == splits


@pytest.mark.parametrize("m, n, k, transposed, splits", [
    (2049, 128, 64, False, True),   # 1,024 rows a worker half: 2^23
    (2047, 128, 64, False, False),  # 1,023 rows: below the bound
    (257, 128, 512, True, True),    # K above 384, a transposed like rows.T
    (255, 128, 512, True, False),
], ids=["at_bound", "below_bound", "at_bound_long_k", "below_bound_long_k"])
def test_matmul_rows_splits_from_the_work_bound(m, n, k, transposed, splits):
    # _GEMM_SPLIT_WORK multiply-adds in the worker's m // 2 rows, or one
    # row's work fewer; an odd m gives the caller the larger half
    assert (m // 2) * n * k >= tensorops._GEMM_SPLIT_WORK or not splits
    a = Rng(1).normal((k, m)).T if transposed else Rng(1).normal((m, k))
    b = Rng(2).normal((k, n))
    out = np.empty((m, n))
    with mock.patch.object(tensorops, "_cpus", lambda: 2), \
            mock.patch.object(tensorops, "split_point",
                              wraps=tensorops.split_point) as split:
        got = matmul_rows(a, b, out)
    assert got is out
    assert split.called == splits
    if splits:
        assert split.call_args_list[0] == mock.call(m)
    assert got.tobytes() == np.matmul(a, b).tobytes()


def test_matmul_rows_inside_a_split_part_runs_the_whole_product():
    # called from both parts of a for_blocks split, above the work bound:
    # each call runs whole on its own thread, so the worker's part does not
    # wait for the worker itself
    a, b = Rng(1).normal((257, 512)), Rng(2).normal((512, 128))
    got = {}

    def parts(part):
        for k in part:
            got[k] = matmul_rows(a, b)

    # a fresh worker, so that a hang cannot reach the tests that follow
    with mock.patch.object(tensorops, "_cpus", lambda: 2), \
            mock.patch.object(tensorops, "_worker", None), \
            mock.patch.object(tensorops, "split_point",
                              wraps=tensorops.split_point) as split:
        caller = threading.Thread(target=tensorops.for_blocks,
                                  args=(parts, [0, 1]), daemon=True)
        caller.start()
        caller.join(timeout=60)
    assert not caller.is_alive()
    assert split.call_args_list == [mock.call(2)]   # the outer split only
    whole = np.matmul(a, b).tobytes()
    assert got[0].tobytes() == whole and got[1].tobytes() == whole
