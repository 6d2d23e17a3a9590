"""Tests for the sLSTM / classic LSTM cells and their hand-written BPTT."""

import numpy as np
import pytest

from pslstm.cells import (GateMode, LSTM_MODE, SLSTMParams, SLSTMState,
                          grad_check, slstm_backward, slstm_forward,
                          slstm_step)
from pslstm.model import Forecaster, ModelConfig
from pslstm.tensorops import Rng, ShapeError, sigmoid


def scalar_params(**overrides):
    """A d=1 cell with every weight zero; biases settable by keyword."""
    kw = {}
    for g in "zifo":
        kw[f"W_{g}"] = np.zeros((1, 1))
        kw[f"R_{g}"] = np.zeros((1, 1))
        kw[f"b_{g}"] = np.zeros(1)
    for k, v in overrides.items():
        arr = np.asarray(v, dtype=np.float64)
        kw[k] = np.atleast_1d(arr) if k.startswith("b_") else \
            arr.reshape(1, 1)
    return SLSTMParams.from_gates(kw, 1)


def random_params(seed, d_in, d_hid, n_heads=1):
    return SLSTMParams.init(Rng(seed), d_in, d_hid, n_heads=n_heads)


def with_gates(params, **arrays):
    """params with some per-gate arrays replaced."""
    return SLSTMParams.from_gates({**params.gates(), **arrays}, params.n_heads)


def random_state(seed, batch, d_hid):
    rng = Rng(seed)
    return SLSTMState(h=rng.normal((batch, d_hid), 0.0, 0.5),
                      c=rng.normal((batch, d_hid), 0.0, 0.5),
                      n=1.5 + rng.uniform((batch, d_hid)),
                      m=None)


# -- gate mode configuration ------------------------------------------------

def test_gate_mode_rejects_unknown_activation():
    with pytest.raises(ValueError):
        GateMode(forget_activation="relu")


def test_gate_mode_stabilizer_needs_normalizer():
    with pytest.raises(ValueError):
        GateMode(stabilized=True, normalizer=False)


def test_recurrent_weights_are_per_head_blocks():
    params = random_params(0, 3, 6, n_heads=3)
    assert params.R.shape == (3, 2, 8)
    again = SLSTMParams.from_gates(params.gates(), 3)
    for name, arr in params.as_dict().items():
        assert np.array_equal(again.as_dict()[name], arr), name
    # without memory mixing there is no recurrent parameter at all
    plain = SLSTMParams.init(Rng(0), 3, 6, n_heads=3, memory_mixing=False)
    assert plain.R is None and set(plain.as_dict()) == {"W", "b"}
    cfg = ModelConfig(lookback=8, horizon=2, n_channels=1, patch_size=4,
                      embed_dim=4, n_heads=2,
                      gate_mode=GateMode(memory_mixing=False))
    assert not any(name.endswith(".R") for name in Forecaster(cfg).params)


def test_init_and_from_gates_reject_indivisible_heads():
    with pytest.raises(ValueError):
        SLSTMParams.init(Rng(0), 3, 5, n_heads=2)
    with pytest.raises(ValueError):
        SLSTMParams.from_gates(random_params(0, 3, 5).gates(), 2)


# -- single step oracles ----------------------------------------------------

def test_step_zero_params_zero_state():
    # all pre-activations are 0: f = exp(0) = 1, i = 1, z = tanh(0) = 0,
    # o = sigmoid(0) = 0.5, so c1 = 0, n1 = 1, h1 = 0
    params = scalar_params()
    state = slstm_step(params, np.zeros((1, 1)), SLSTMState.zeros(1, 1))
    assert state.c[0, 0] == 0.0
    assert state.n[0, 0] == 1.0
    assert state.h[0, 0] == 0.0


def test_step_saturated_forget_erases_cell_state():
    # b_f = -30 makes f ~ e^-30; the previous cell state is wiped out
    params = scalar_params(b_f=-30.0, b_z=np.arctanh(0.5), b_i=0.0)
    prev = SLSTMState(h=np.zeros((1, 1)), c=np.full((1, 1), 7.0),
                      n=np.ones((1, 1)), m=np.zeros((1, 1)))
    state = slstm_step(params, np.zeros((1, 1)), prev)
    # c1 ~ i * z = 1 * 0.5 up to the e^-30 leak
    assert abs(state.c[0, 0] / state.n[0, 0] - 0.5) < 1e-9


def test_step_scalar_hand_oracle():
    # b_f = b_i = 0 gives f = i = 1; b_z = arctanh(0.5) gives z = 0.5;
    # large b_o gives o ~ 1. From (c=2, n=2):
    #   c1 = 1*2 + 1*0.5 = 2.5, n1 = 1*2 + 1 = 3, h1 ~ 2.5/3 = 0.8333...
    params = scalar_params(b_z=np.arctanh(0.5), b_o=30.0)
    prev = SLSTMState(h=np.zeros((1, 1)), c=np.full((1, 1), 2.0),
                      n=np.full((1, 1), 2.0), m=np.zeros((1, 1)))
    state = slstm_step(params, np.zeros((1, 1)), prev)
    # stabilized mode stores c' = c * exp(-m), n' = n * exp(-m)
    assert np.isclose(state.c[0, 0] * np.exp(state.m[0, 0]), 2.5)
    assert np.isclose(state.n[0, 0] * np.exp(state.m[0, 0]), 3.0)
    assert abs(state.h[0, 0] - 2.5 / 3.0) < 1e-9


def test_step_shape_errors():
    params = random_params(0, 3, 4)
    with pytest.raises(ShapeError):
        slstm_step(params, np.zeros((1, 5)), SLSTMState.zeros(1, 4))
    with pytest.raises(ShapeError):
        slstm_step(params, np.zeros((1, 3)), SLSTMState.zeros(2, 4))


@pytest.mark.parametrize("entry", ["step", "forward"])
@pytest.mark.parametrize("name, shape", [("h", (1, 4)), ("c", (1, 4)),
                                         ("n", (4,)), ("m", (1, 4))])
def test_mis_shaped_initial_state_is_rejected(entry, name, shape):
    # numpy would broadcast a (1, d) or (d,) state over the batch of 2
    params = random_params(0, 3, 4)
    state = SLSTMState.zeros(2, 4)
    state.m = np.zeros((2, 4))
    setattr(state, name, np.zeros(shape))
    with pytest.raises(ShapeError, match=f"state {name} "):
        if entry == "step":
            slstm_step(params, np.zeros((2, 3)), state)
        else:
            slstm_forward(params, np.zeros((2, 5, 3)), state)


# -- cross-mode equivalence -------------------------------------------------

def test_stabilized_matches_raw_forward():
    # moderate pre-activations where raw arithmetic is still safe
    rng = Rng(3)
    for trial in range(20):
        params = random_params(100 + trial, 4, 6)
        x = rng.normal((2, 12, 4), 0.0, 1.0)
        h_raw, _ = slstm_forward(params, x, None,
                                 GateMode(stabilized=False))
        h_stab, _ = slstm_forward(params, x, None,
                                  GateMode(stabilized=True))
        assert np.max(np.abs(h_raw - h_stab)) < 1e-10


def test_stabilized_survives_large_forget_preactivations():
    # raw exp would overflow after a few steps
    params = with_gates(random_params(1, 2, 4), b_f=np.full(4, 40.0))
    x = Rng(9).normal((1, 50, 2), 0.0, 1.0)
    h, _ = slstm_forward(params, x, None, GateMode(stabilized=True))
    assert np.all(np.isfinite(h))


def test_sigmoid_gate_mode_reproduces_classic_lstm():
    # independent construction of the classic cell, step by step
    params = random_params(7, 3, 5)
    rng = Rng(21)
    x = rng.normal((2, 8, 3), 0.0, 1.0)
    h_mode, _ = slstm_forward(params, x, None, LSTM_MODE)

    p = params.gates()
    h = np.zeros((2, 5))
    c = np.zeros((2, 5))
    ref = np.empty((2, 8, 5))
    for t in range(8):
        xt = x[:, t, :]
        z = np.tanh(xt @ p["W_z"].T + h @ p["R_z"].T + p["b_z"])
        i = sigmoid(xt @ p["W_i"].T + h @ p["R_i"].T + p["b_i"])
        f = sigmoid(xt @ p["W_f"].T + h @ p["R_f"].T + p["b_f"])
        o = sigmoid(xt @ p["W_o"].T + h @ p["R_o"].T + p["b_o"])
        c = f * c + i * z
        h = o * np.tanh(c)
        ref[:, t, :] = h
    assert np.max(np.abs(h_mode - ref)) < 1e-12


def test_lstm_zero_params_oracle():
    # zero weights: f = i = o = 0.5, c1 = 0.5*c0, h1 = 0.5*tanh(0.5*c0)
    params = scalar_params()
    prev = SLSTMState(h=np.zeros((1, 1)), c=np.full((1, 1), 0.8),
                      n=np.ones((1, 1)))
    state = slstm_step(params, np.zeros((1, 1)), prev, LSTM_MODE)
    assert np.isclose(state.c[0, 0], 0.4)
    assert np.isclose(state.h[0, 0], 0.5 * np.tanh(0.4))


# -- sequence behaviour -----------------------------------------------------

def test_forward_single_step_equals_step():
    params = random_params(11, 3, 4)
    x = Rng(12).normal((2, 1, 3), 0.0, 1.0)
    h_seq, _ = slstm_forward(params, x)
    state = slstm_step(params, x[:, 0, :], SLSTMState.zeros(2, 4))
    assert np.array_equal(h_seq[:, 0, :], state.h)


def test_forward_empty_sequence_rejected():
    params = random_params(0, 2, 2)
    with pytest.raises(ShapeError):
        slstm_forward(params, np.zeros((1, 0, 2)))


def test_batch_permutation_invariance():
    # sequences in a batch never interact, in any mode
    params = random_params(5, 3, 6, n_heads=2)
    x = Rng(6).normal((4, 10, 3), 0.0, 1.0)
    perm = np.array([2, 0, 3, 1])
    h, _ = slstm_forward(params, x)
    h_perm, _ = slstm_forward(params, x[perm])
    assert np.array_equal(h[perm], h_perm)


def test_head_isolation_with_block_diagonal_projections():
    # when W is block-structured too, head 1's output cannot depend on the
    # input channels feeding head 2
    d = 6
    params = random_params(8, d, d, n_heads=2)
    mask = np.kron(np.eye(2), np.ones((3, 3)))
    params = with_gates(params, **{f"W_{g}": params.gates()[f"W_{g}"] * mask
                                   for g in "zifo"})
    rng = Rng(30)
    x = rng.normal((1, 12, d), 0.0, 1.0)
    x_zeroed = x.copy()
    x_zeroed[:, :, d // 2:] = 0.0
    h_a, _ = slstm_forward(params, x)
    h_b, _ = slstm_forward(params, x_zeroed)
    assert np.array_equal(h_a[:, :, :d // 2], h_b[:, :, :d // 2])
    assert not np.array_equal(h_a[:, :, d // 2:], h_b[:, :, d // 2:])


# -- backward ---------------------------------------------------------------

ALL_MODES = [GateMode(),
             GateMode(stabilized=False),
             GateMode(forget_activation="sigmoid"),
             GateMode(memory_mixing=False),
             LSTM_MODE]


def _cell_loss_fn(mode, x, init, gh, n_heads=2):
    def loss_and_grads(pdict):
        params = SLSTMParams(pdict["W"], pdict["b"], pdict.get("R"), n_heads)
        h_seq, tape = slstm_forward(params, x, init, mode)
        grads, _ = slstm_backward(params, tape, gh)
        return float(np.sum(h_seq * gh)), grads
    return loss_and_grads


@pytest.mark.parametrize("mode", ALL_MODES,
                         ids=["slstm", "slstm_raw", "sigmoid_forget",
                              "no_mixing", "classic_lstm"])
def test_backward_matches_finite_differences(mode):
    params = random_params(17, 3, 4, n_heads=2)
    if not mode.memory_mixing:
        params.R = None
    rng = Rng(18)
    x = rng.normal((2, 6, 3), 0.0, 1.0)
    init = random_state(19, 2, 4)
    gh = rng.normal((2, 6, 4), 0.0, 1.0)
    err = grad_check(_cell_loss_fn(mode, x, init, gh), params.as_dict(),
                     epsilon=1e-5)
    assert err < 1e-6


def test_backward_takes_the_gate_mode_from_the_tape():
    # an exponential-gate tape and a classic-LSTM tape of the same weights
    # each backpropagate with the arithmetic their forward ran; backward
    # takes no mode, so a mismatched one cannot be passed
    params = random_params(17, 3, 4, n_heads=2)
    rng = Rng(18)
    x = rng.normal((2, 6, 3), 0.0, 1.0)
    init = random_state(19, 2, 4)
    gh = rng.normal((2, 6, 4), 0.0, 1.0)
    grads_W = []
    for mode, other in ((GateMode(), LSTM_MODE), (LSTM_MODE, GateMode())):
        _, tape = slstm_forward(params, x, init, mode)
        assert tape.mode == mode
        with pytest.raises(TypeError):
            slstm_backward(params, tape, gh, other)
        grads_W.append(slstm_backward(params, tape, gh)[0]["W"])
        err = grad_check(_cell_loss_fn(mode, x, init, gh), params.as_dict(),
                         epsilon=1e-5)
        assert err < 1e-6
    assert not np.array_equal(*grads_W)


def test_backward_longer_sequence_two_heads():
    params = random_params(23, 8, 8, n_heads=2)
    rng = Rng(24)
    x = rng.normal((1, 32, 8), 0.0, 0.5)
    init = random_state(25, 1, 8)
    gh = rng.normal((1, 32, 8), 0.0, 1.0)
    err = grad_check(_cell_loss_fn(GateMode(), x, init, gh), params.as_dict(),
                     epsilon=1e-5)
    assert err < 1e-4


def test_backward_zero_cotangent_gives_zero_grads():
    params = random_params(2, 3, 4)
    x = Rng(3).normal((2, 5, 3), 0.0, 1.0)
    _, tape = slstm_forward(params, x)
    grads, gx = slstm_backward(params, tape, np.zeros((2, 5, 4)))
    for name in params.as_dict():
        assert np.all(grads[name] == 0.0)
    assert np.all(gx == 0.0)


def test_backward_single_scalar_step_vs_symbolic():
    # d = 1, one step: h1 = o*(f*c0 + i*z)/(f*n0 + i) with exponential gates;
    # compare every parameter gradient against central differences
    params = scalar_params(b_z=0.3, b_i=-0.2, b_f=-0.5, b_o=0.1,
                           W_z=0.7, W_i=-0.4, W_f=0.2, W_o=0.5)
    x = np.array([[0.9]])
    init = SLSTMState(h=np.array([[0.4]]), c=np.array([[1.2]]),
                      n=np.array([[2.0]]), m=None)
    gh = np.array([[[1.0]]])
    err = grad_check(_cell_loss_fn(GateMode(), x[:, None, :], init, gh, n_heads=1),
                     params.as_dict(), epsilon=1e-5)
    assert err < 1e-6


def test_backward_input_gradients():
    params = random_params(31, 3, 4)
    rng = Rng(32)
    x = rng.normal((1, 4, 3), 0.0, 1.0)
    init = random_state(33, 1, 4)
    gh = rng.normal((1, 4, 4), 0.0, 1.0)

    h_seq, tape = slstm_forward(params, x, init)
    _, gx = slstm_backward(params, tape, gh)
    eps = 1e-6
    worst = 0.0
    for t in range(4):
        for j in range(3):
            xp = x.copy(); xp[0, t, j] += eps
            xm = x.copy(); xm[0, t, j] -= eps
            hp, _ = slstm_forward(params, xp, init)
            hm, _ = slstm_forward(params, xm, init)
            fd = float(np.sum((hp - hm) * gh)) / (2 * eps)
            a = gx[0, t, j]
            worst = max(worst, abs(a - fd) / max(1e-8, abs(a) + abs(fd)))
    assert worst < 1e-6


def test_backward_consumes_the_tape():
    params = random_params(44, 3, 4, n_heads=2)
    x = Rng(45).normal((2, 5, 3), 0.0, 1.0)
    _, tape = slstm_forward(params, x)
    slstm_backward(params, tape, np.ones((2, 5, 4)))
    with pytest.raises(ValueError, match="consumed"):
        slstm_backward(params, tape, np.ones((2, 5, 4)))


def test_tape_keeps_the_time_major_input_rows_not_the_callers_array():
    # the forward's GEMM rows serve the W gradient too: backward makes no
    # second copy, and the tape does not keep the caller's array alive
    params = random_params(48, 3, 4, n_heads=2)
    x = Rng(49).normal((5, 6, 3), 0.0, 1.0)
    _, tape = slstm_forward(params, x)
    assert tape.x.shape == (6 * 5, 3) and tape.x.flags.c_contiguous
    assert tape.x.tobytes() == x.transpose(1, 0, 2).tobytes()
    assert not np.shares_memory(tape.x, x)
    slstm_backward(params, tape, np.ones((5, 6, 4)))
    assert tape.x is None


def test_stabilized_forward_rejects_non_finite_hidden_state():
    params = random_params(46, 3, 4, n_heads=2)
    x = Rng(47).normal((1, 6, 3), 0.0, 1.0)
    x[0, 3, 0] = np.nan
    with pytest.raises(FloatingPointError):
        slstm_forward(params, x)


def test_backward_length_mismatch():
    params = random_params(0, 2, 2)
    _, tape = slstm_forward(params, np.zeros((1, 3, 2)))
    with pytest.raises(ShapeError):
        slstm_backward(params, tape, np.zeros((1, 4, 2)))


# -- grad_check harness -----------------------------------------------------

def test_grad_check_linear_layer_is_exact():
    rng = Rng(50)
    W = rng.normal((3, 4))
    x = rng.normal((5, 4))

    def loss_and_grads(pdict):
        out = x @ pdict["W"].T
        return float(np.sum(out * out)), {"W": 2.0 * (x @ pdict["W"].T).T @ x}

    assert grad_check(loss_and_grads, {"W": W}, epsilon=1e-4) < 1e-9


def test_grad_check_epsilon_bounds():
    with pytest.raises(ValueError):
        grad_check(lambda p: (0.0, {}), {}, epsilon=1.0)


def test_grad_check_nonfinite_loss():
    with pytest.raises(FloatingPointError):
        grad_check(lambda p: (float("nan"), {}), {"a": np.zeros(1)})


def _square_loss(nan_grad=False, nan_at=None):
    """loss sum(a**2) with exact gradients 2a; nan_grad puts NaN in the
    analytic gradient's first entry, nan_at makes the loss NaN at that
    value of a[0]."""
    def loss_and_grads(p):
        a = p["a"]
        grad = 2.0 * a
        if nan_grad:
            grad[0] = np.nan
        loss = float(np.sum(a * a))
        return (np.nan if a[0] == nan_at else loss), {"a": grad}
    return loss_and_grads


@pytest.mark.parametrize("kwargs", [{"nan_grad": True},
                                    {"nan_at": 1.0 + 1e-5}],
                         ids=["analytic", "perturbed_loss"])
def test_grad_check_counts_a_nan_comparison_as_a_failure(kwargs):
    params = {"a": np.array([1.0, 2.0])}
    assert grad_check(_square_loss(), params) < 1e-9
    assert grad_check(_square_loss(**kwargs), params) == np.inf


def test_grad_check_restores_the_entry_when_the_loss_raises():
    params = {"a": np.array([1.0, 2.0])}
    calls = []

    def loss_and_grads(p):
        calls.append(p["a"].copy())
        if len(calls) == 2:
            raise RuntimeError("model failed")
        return float(np.sum(p["a"] ** 2)), {"a": 2.0 * p["a"]}

    with pytest.raises(RuntimeError, match="model failed"):
        grad_check(loss_and_grads, params)
    assert calls[1][0] != 1.0
    assert params["a"].tolist() == [1.0, 2.0]
