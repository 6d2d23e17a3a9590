"""Differential tests of the fused sequence kernel.

slstm_forward hoists the input projection out of the time loop and runs
the recurrence head by head; a plain loop over slstm_step is the reference.
Inputs come from seeded generators, hypothesis only draws shapes, seeds and
modes. Values agree to rounding (the hoisted GEMM may sum in another
order); non-finite values, in raw mode's overflow regime, must land in
exactly the same places.

The kernel runs its time loops one block of rows at a time; the unblocked
reference is the same kernel with the row-block budget patched to hold
every row. slstm_forward and the tape-free slstm_predict share one
sequence driver, so predict must give forward's h byte for byte; both are
also checked byte for byte against a driver rebuilt in this file (one
whole-batch input GEMM, then the time loop per row block). A time loop fed
by its own output (the probe's chain) must give a slstm_step loop's bytes.
"""

import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, strategies as st

from pslstm.cells import (GateMode, LSTM_MODE, SLSTMParams, SLSTMState,
                          _forward_rows, _tape_arrays, grad_check,
                          slstm_backward,
                          slstm_forward, slstm_predict, slstm_step)
from pslstm import tensorops
from pslstm.tensorops import Rng, ShapeError

ACTIVATIONS = ("exponential", "sigmoid")
ALL_MODES = [
    GateMode(forget_activation=f, input_activation=i, stabilized=stab,
             memory_mixing=mix, normalizer=norm)
    for f, i, stab, mix, norm in itertools.product(
        ACTIVATIONS, ACTIVATIONS, (True, False), (True, False), (True, False))
    if norm or not stab
]


@st.composite
def cases(draw, overflow=False):
    n_heads = draw(st.integers(1, 3))
    d = n_heads * draw(st.integers(1, 4))
    return dict(batch=draw(st.integers(1, 4)), steps=draw(st.integers(1, 8)),
                d_in=draw(st.integers(1, 5)), d=d, n_heads=n_heads,
                seed=draw(st.integers(0, 2**16)),
                init=draw(st.sampled_from(["none", "state", "state_with_m"])),
                mode=draw(st.sampled_from(
                    [m for m in ALL_MODES if not m.stabilized] if overflow
                    else ALL_MODES)))


def build(case, forget_bias=None):
    rng = Rng(case["seed"])
    mode = case["mode"]
    params = SLSTMParams.init(rng.spawn(1), case["d_in"], case["d"],
                              n_heads=case["n_heads"],
                              memory_mixing=mode.memory_mixing)
    if forget_bias is not None:
        gates = params.gates()
        gates["b_f"] = forget_bias + 5.0 * rng.uniform((case["d"],))
        gates["b_i"] = 5.0 * rng.uniform((case["d"],))
        params = SLSTMParams.from_gates(gates, case["n_heads"])
    B, d = case["batch"], case["d"]
    x = rng.normal((B, case["steps"], case["d_in"]), 0.0, 1.5)
    init = None
    if case["init"] != "none":
        init = SLSTMState(h=rng.normal((B, d), 0.0, 0.5),
                          c=rng.normal((B, d), 0.0, 0.5),
                          n=0.5 + rng.uniform((B, d)),
                          m=rng.normal((B, d), 0.0, 1.0)
                          if case["init"] == "state_with_m" else None)
    return params, x, init, mode


def step_loop(params, x, init, mode):
    """Reference: slstm_step once per timestep."""
    B, S, _ = x.shape
    state = init if init is not None else SLSTMState.zeros(B, params.d_hidden)
    h = np.empty((B, S, params.d_hidden))
    c = np.empty_like(h)
    n = np.empty_like(h)
    for t in range(S):
        state = slstm_step(params, x[:, t], state, mode)
        h[:, t], c[:, t], n[:, t] = state.h, state.c, state.n
    return h, c, n


def run_both(params, x, init, mode):
    """(kernel, reference) outputs, or the FloatingPointError both raise."""
    try:
        ref = step_loop(params, x, init, mode)
    except FloatingPointError:
        ref = FloatingPointError
    try:
        h, tape = slstm_forward(params, x, init, mode)
        fused = (h, tape.c.transpose(1, 0, 2),
                 tape.n.transpose(1, 0, 2) if mode.normalizer else ref[2])
    except FloatingPointError:
        fused = FloatingPointError
    return fused, ref


def assert_same(a, b):
    """Equal non-finite placement, finite values equal to rounding."""
    assert np.array_equal(np.isnan(a), np.isnan(b))
    assert np.array_equal(np.isposinf(a), np.isposinf(b))
    assert np.array_equal(np.isneginf(a), np.isneginf(b))
    finite = np.isfinite(a)
    np.testing.assert_allclose(a[finite], b[finite], rtol=1e-9, atol=1e-12)


@given(cases())
def test_forward_matches_step_loop(case):
    fused, ref = run_both(*build(case))
    if ref is FloatingPointError or fused is FloatingPointError:
        assert fused is ref
        return
    for a, b in zip(fused, ref):
        assert_same(a, b)


@given(cases(overflow=True))
def test_raw_overflow_lands_in_the_same_places(case):
    # forget biases of 150 to 155 overflow c and n within a few steps
    params, x, init, mode = build(case, forget_bias=150.0)
    fused, ref = run_both(params, x, init, mode)
    for a, b in zip(fused, ref):
        assert_same(a, b)


def test_overflow_regime_is_reached():
    # the overflow property test would be vacuous if nothing overflowed
    case = dict(batch=2, steps=8, d_in=2, d=4, n_heads=2, seed=3,
                init="none", mode=GateMode(stabilized=False))
    fused, _ = run_both(*build(case, forget_bias=150.0))
    assert not np.all(np.isfinite(fused[1]))


# Hypothesis derives its derandomized seed from the test's source. This is
# the seed the per-gate version of this test had, so the kernel-layout
# version runs the same examples; other example sets can hit grad_check's
# round-off floor on near-zero gradient entries (see CHANGES.md).
_FD_EXAMPLES_SEED = int(
    "24686549141723708308250562106171551578296290752498542402590730069710"
    "179319639135149758718373294299443983397754549003")


@seed(_FD_EXAMPLES_SEED)
@given(st.integers(1, 2), st.integers(1, 4), st.integers(1, 3),
       st.sampled_from([(2, 1), (2, 2), (4, 2), (3, 3)]),
       st.sampled_from(ALL_MODES), st.integers(0, 2**16))
def test_backward_matches_finite_differences(batch, steps, d_in, width,
                                             mode, seed):
    d, n_heads = width
    case = dict(batch=batch, steps=steps, d_in=d_in, d=d, n_heads=n_heads,
                seed=seed, init="state", mode=mode)
    params, x, init, _ = build(case)
    gh = Rng(seed).spawn(2).normal((batch, steps, d), 0.0, 1.0)

    def loss_and_grads(pdict):
        p = SLSTMParams(pdict["W"], pdict["b"], pdict.get("R"), n_heads)
        h_seq, tape = slstm_forward(p, x, init, mode)
        grads, _ = slstm_backward(p, tape, gh, mode)
        return float(np.sum(h_seq * gh)), grads

    err = grad_check(loss_and_grads, params.as_dict(), epsilon=1e-5)
    assert err < 1e-4


# -- row blocks ---------------------------------------------------------------

def run_blocked(params, x, init, mode, grad, rows_per_block):
    """slstm_forward and slstm_backward with the given rows per row block:
    [h, c, n, grad W, grad b, grad R, grad x] (None where absent), or
    FloatingPointError if the forward raised it."""
    budget = rows_per_block * 4 * params.d_hidden
    with mock.patch.object(tensorops, "_CHUNK", budget):
        try:
            h, tape = slstm_forward(params, x, init, mode)
        except FloatingPointError:
            return FloatingPointError
        out = [h.copy(), tape.c.copy(),
               None if tape.n is None else tape.n.copy()]
        grads, grad_x = slstm_backward(params, tape, grad, mode)
    return out + [grads["W"], grads["b"], grads.get("R"), grad_x]


@st.composite
def blocked_cases(draw, overflow=False):
    """A case whose batch is not a multiple of the drawn row block."""
    case = draw(cases(overflow=overflow))
    block = draw(st.integers(2, 4))
    case["batch"] = block * draw(st.integers(1, 3)) + draw(
        st.integers(1, block - 1))
    case["block"] = block
    return case


def check_blocked(case, forget_bias=None):
    params, x, init, mode = build(case, forget_bias)
    grad = Rng(case["seed"]).spawn(3).normal(
        (case["batch"], case["steps"], case["d"]), 0.0, 1.0)
    # backward through an overflowed forward meets inf - inf and 0 * inf
    with np.errstate(all="ignore") if forget_bias else contextlib.nullcontext():
        whole = run_blocked(params, x, init, mode, grad, case["batch"])
        blocked = run_blocked(params, x, init, mode, grad, case["block"])
    if whole is FloatingPointError or blocked is FloatingPointError:
        assert blocked is whole
        return
    for a, b in zip(blocked, whole):
        if a is None:
            assert b is None
        elif mode.memory_mixing:
            # OpenBLAS may round the recurrent GEMM of a short tail block
            # differently in the last bit
            assert_same(a, b)
        else:
            assert a.tobytes() == b.tobytes()


@given(blocked_cases())
def test_row_blocks_match_the_unblocked_kernel(case):
    check_blocked(case)


@given(blocked_cases(overflow=True))
def test_row_blocks_keep_raw_overflow_in_the_same_places(case):
    check_blocked(case, forget_bias=150.0)


def mode_id(mode):
    return "-".join([mode.forget_activation[:3], mode.input_activation[:3]]
                    + [name for name in ("stabilized", "memory_mixing",
                                         "normalizer") if getattr(mode, name)])


@pytest.mark.parametrize("mode", ALL_MODES, ids=mode_id)
def test_every_gate_mode_blocks_a_tail(mode):
    # each GateMode at least once, 7 rows in blocks of 3, overflow included
    case = dict(batch=7, steps=5, d_in=3, d=4, n_heads=2, seed=11,
                init="state_with_m" if mode.stabilized else "state",
                mode=mode, block=3)
    check_blocked(case)
    if not mode.stabilized:
        check_blocked(case, forget_bias=150.0)


# -- no state shared across calls ---------------------------------------------

def tape_bytes(h, tape):
    return [a.tobytes() for a in (h, tape.gates, tape.c, tape.n, tape.h,
                                  tape.dlog_i, tape.dlog_f) if a is not None]


def grad_bytes(grads, grad_x):
    return [grads[k].tobytes() for k in sorted(grads)] + [grad_x.tobytes()]


@pytest.mark.parametrize("mode", ALL_MODES, ids=mode_id)
def test_interleaved_calls_share_no_scratch(mode):
    # A forward, B forward, B backward, A backward gives the bytes of the two
    # calls run one after the other; 7 rows run in blocks of 3
    calls = []
    for seed in (31, 32):
        case = dict(batch=7, steps=5, d_in=3, d=4, n_heads=2, seed=seed,
                    init="state_with_m" if mode.stabilized else "state",
                    mode=mode)
        params, x, init, _ = build(case)
        grad = Rng(seed).spawn(3).normal((7, 5, 4), 0.0, 1.0)
        calls.append((params, x, init, grad))
    with mock.patch.object(tensorops, "_CHUNK", 3 * 4 * 4):
        alone = []
        for params, x, init, grad in calls:
            h, tape = slstm_forward(params, x, init, mode)
            out = tape_bytes(h, tape)
            alone.append(out + grad_bytes(*slstm_backward(params, tape, grad,
                                                          mode)))
        (pa, xa, ia, ga), (pb, xb, ib, gb) = calls
        ha, tape_a = slstm_forward(pa, xa, ia, mode)
        hb, tape_b = slstm_forward(pb, xb, ib, mode)
        out_b = tape_bytes(hb, tape_b)
        out_b += grad_bytes(*slstm_backward(pb, tape_b, gb, mode))
        out_a = tape_bytes(ha, tape_a)
        out_a += grad_bytes(*slstm_backward(pa, tape_a, ga, mode))
    assert out_a == alone[0]
    assert out_b == alone[1]


@pytest.mark.parametrize("mode", [m for m in ALL_MODES if m.stabilized],
                         ids=mode_id)
def test_non_finite_state_in_the_last_block_raises(mode):
    # the finiteness check covers every block and every step: a NaN input
    # in the last row at the last step, with 7 rows in blocks of 3
    case = dict(batch=7, steps=5, d_in=3, d=4, n_heads=2, seed=11,
                init="none", mode=mode)
    params, x, init, _ = build(case)
    with mock.patch.object(tensorops, "_CHUNK", 3 * 4 * 4):
        slstm_forward(params, x, init, mode)
        x[-1, -1, 0] = np.nan
        with pytest.raises(FloatingPointError):
            slstm_forward(params, x, init, mode)


# -- the tape-free evaluation path ------------------------------------------

def predict_and_forward(params, x, mode, rows_per_block):
    """(slstm_predict, slstm_forward's h) with the given rows per row
    block; FloatingPointError in place of a call that raised it."""
    out = []
    budget = rows_per_block * 4 * params.d_hidden
    with mock.patch.object(tensorops, "_CHUNK", budget):
        for run in (lambda: slstm_predict(params, x, mode),
                    lambda: slstm_forward(params, x, None, mode)[0]):
            try:
                out.append(run())
            except FloatingPointError:
                out.append(FloatingPointError)
    return out


def check_predict(case, forget_bias=None):
    params, x, _, mode = build(case, forget_bias)
    predicted, forward = predict_and_forward(params, x, mode, case["block"])
    if predicted is FloatingPointError or forward is FloatingPointError:
        assert predicted is forward
        return
    assert predicted.shape == forward.shape
    # bytes: inf and NaN in the same places, every finite value to the bit
    assert predicted.tobytes() == np.ascontiguousarray(forward).tobytes()
    check_reference(case, forget_bias)


@given(blocked_cases())
def test_predict_is_bitwise_the_forward_h(case):
    check_predict(case)


@given(blocked_cases(overflow=True))
def test_predict_keeps_raw_overflow_bitwise(case):
    check_predict(case, forget_bias=150.0)


# ALL_MODES holds every GateMode, LSTM_MODE among them
@pytest.mark.parametrize("mode", ALL_MODES, ids=mode_id)
@pytest.mark.parametrize("batch, steps, block", [
    (7, 8, 3),      # a tail block of one row; raw mode overflows
    (8, 4, 3),      # a tail block of two rows
    (1, 5, 3),      # one row
    (7, 1, 3),      # one step, a one-row tail block
    (6, 3, 100),    # one block
])
def test_predict_in_every_gate_mode(mode, batch, steps, block):
    case = dict(batch=batch, steps=steps, d_in=3, d=4, n_heads=2, seed=11,
                init="none", mode=mode, block=block)
    check_predict(case)
    if not mode.stabilized:
        check_predict(case, forget_bias=150.0)


def test_predict_matches_forward_at_a_small_gemm_kernel_shape():
    # d_input 48, 4d = 64, blocks of 5 rows: a two-row tail block's own
    # (8, 48) x (48, 64) GEMM would take OpenBLAS's small-matrix kernel and
    # round unlike the one whole-batch GEMM that both paths run
    case = dict(batch=7, steps=4, d_in=48, d=16, n_heads=2, seed=13,
                init="none", mode=GateMode(), block=5)
    check_predict(case)


def test_predict_overflow_regime_is_reached():
    # the raw overflow checks above would be vacuous if h stayed finite
    case = dict(batch=7, steps=8, d_in=3, d=4, n_heads=2, seed=11,
                init="none", mode=GateMode(stabilized=False))
    params, x, _, mode = build(case, forget_bias=150.0)
    h = slstm_predict(params, x, mode)
    assert not np.isfinite(h).all() and np.isfinite(h).any()


def test_predict_keeps_forward_nan_signs():
    # raw overflow where h and o are both NaN at a row's last unit: written
    # into a batch-major array instead of forward's time-major h, numpy's
    # strided h *= o keeps o's NaN sign there, the contiguous one h's
    case = dict(batch=3, steps=7, d_in=1, d=9, n_heads=3, seed=0,
                init="none", mode=GateMode(stabilized=False), block=2)
    check_predict(case, forget_bias=150.0)


@pytest.mark.parametrize("bad", [(2, 0, 3), (2, 4, 2), (2, 3, 4, 3), (3,),
                                 (4, 3)])
def test_predict_rejects_what_forward_rejects(bad):
    params, _, _, mode = build(dict(batch=2, steps=4, d_in=3, d=4, n_heads=2,
                                    seed=5, init="none", mode=GateMode()))
    for run in (slstm_predict, lambda p, x, m: slstm_forward(p, x, None, m)):
        with pytest.raises(ShapeError):
            run(params, np.zeros(bad), mode)


@pytest.mark.parametrize("mode", [m for m in ALL_MODES if m.stabilized],
                         ids=mode_id)
def test_predict_raises_on_a_non_finite_state_in_the_last_block(mode):
    case = dict(batch=7, steps=5, d_in=3, d=4, n_heads=2, seed=11,
                init="none", mode=mode)
    params, x, _, _ = build(case)
    with mock.patch.object(tensorops, "_CHUNK", 3 * 4 * 4):
        slstm_predict(params, x, mode)
        x[-1, -1, 0] = np.nan
        with pytest.raises(FloatingPointError):
            slstm_predict(params, x, mode)


# -- an independent reference for the shared driver --------------------------

def reference_forward(params, x, init, mode):
    """The sequence driver rebuilt: one whole-batch input GEMM, then the time
    loop per row block, keeping the activations. [h (B, S, d), gates, c, n,
    h tape, dlog_i, dlog_f], as slstm_forward returns them."""
    B, S, d_in = x.shape
    d = params.d_hidden
    init = init if init is not None else SLSTMState.zeros(B, d)
    gates = (x.transpose(1, 0, 2).reshape(S * B, d_in) @ params.W.T).reshape(
        S, B, 4 * d)
    gates += params.b
    out = _tape_arrays(S, B, d, mode)
    for blk in tensorops.row_slices((B, 4 * d)):
        rows = SLSTMState(*(None if a is None else a[blk]
                            for a in (init.h, init.c, init.n, init.m)))
        _forward_rows(gates[:, blk], rows, params.R, params.n_heads, mode,
                      [None if a is None else a[:, blk] for a in out],
                      keep=True)
    return [out[2].transpose(1, 0, 2), gates] + out


def check_reference(case, forget_bias=None):
    """slstm_forward's h and tape and slstm_predict's h against
    reference_forward, byte for byte; check_predict runs it too."""
    params, x, init, mode = build(case, forget_bias)
    with mock.patch.object(tensorops, "_CHUNK", case["block"] * 4 * case["d"]):
        expected = reference_forward(params, x, init, mode)
        h, tape = slstm_forward(params, x, init, mode)
        expected_h = reference_forward(params, x, None, mode)[0]
        predicted = slstm_predict(params, x, mode)
    got = [h, tape.gates, tape.c, tape.n, tape.h, tape.dlog_i, tape.dlog_f]
    for a, b in zip(got, expected):
        if b is None:
            assert a is None
        else:
            assert a.tobytes() == b.tobytes()
    assert predicted.tobytes() == np.ascontiguousarray(expected_h).tobytes()


@pytest.mark.parametrize("mode", ALL_MODES, ids=mode_id)
def test_driver_matches_the_rebuilt_reference_in_every_gate_mode(mode):
    # 7 rows in blocks of 3 (a one-row tail), from each initial state
    for init in ("none", "state", "state_with_m"):
        case = dict(batch=7, steps=6, d_in=3, d=4, n_heads=2, seed=17,
                    init=init, mode=mode, block=3)
        check_reference(case)
        if not mode.stabilized:
            check_reference(case, forget_bias=150.0)


# -- a time loop fed by its own output --------------------------------------

@pytest.mark.parametrize("forget_bias", [None, 150.0], ids=["plain", "overflow"])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("mode", ALL_MODES, ids=mode_id)
def test_fed_time_loop_matches_the_step_loop(mode, batch, forget_bias):
    # each step's input is tanh(h V) of the step before: one _forward_rows
    # call whose feed writes pre[t + 1] gives the bytes of a slstm_step loop
    assert LSTM_MODE in ALL_MODES
    case = dict(batch=batch, steps=6, d_in=3, d=4, n_heads=2, seed=23,
                init="state", mode=mode)
    params, x, init, _ = build(case, forget_bias)
    S, W_in, V = case["steps"], params.W.T, Rng(5).normal((4, 3), 0.0, 1.0)
    pre = np.empty((S + 1, batch, 16))
    pre[0] = x[:, 0] @ W_in
    pre[0] += params.b

    def feed(t, h):
        np.matmul(np.tanh(h @ V), W_in, out=pre[t + 1])
        pre[t + 1] += params.b

    out = _tape_arrays(S, batch, 4, mode)
    state, x_t = init, x[:, 0]
    with np.errstate(all="ignore"):
        m = _forward_rows(pre[:S], init, params.R, params.n_heads,
                          mode, out, keep=False, feed=feed)
        for t in range(S):
            state = slstm_step(params, x_t, state, mode)
            x_t = np.tanh(state.h @ V)
            for a, b in zip(out, (state.c, state.n, state.h)):
                assert a is None or a[t].tobytes() == b.tobytes()
    assert state.m is m is None or state.m.tobytes() == m.tobytes()
    if forget_bias is not None and mode == GateMode(stabilized=False):
        assert not np.isfinite(state.c).all()   # the overflow was reached
