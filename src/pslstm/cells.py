"""sLSTM and classic LSTM recurrent cells with hand-written BPTT.

The sLSTM cell replaces the sigmoid input/forget gates of the classic LSTM
with exponentials and divides the cell state by a running normalizer before
the output gate:

    z_t = tanh(Wz x + Rz h + bz)          cell input
    i_t = exp(...)   f_t = exp(...)        input / forget gates
    o_t = sigmoid(...)                     output gate
    c_t = f_t * c_{t-1} + i_t * z_t
    n_t = f_t * n_{t-1} + i_t
    h_t = o_t * c_t / n_t

Exponential gates overflow for positive pre-activations, so a log-space
stabilizer m_t = max(log f_t + m_{t-1}, log i_t) is tracked in stabilized
mode; the hidden state is algebraically unchanged because the exp(-m)
rescaling cancels in the c/n ratio. Raw mode keeps the textbook arithmetic
(including its overflow) for the memory-property probe.

Recurrent weight matrices are block-diagonal with ``n_heads`` equal blocks:
memory mixing happens within a head but never across heads.

States are (B, d) and the sequences slstm_forward takes and returns are
(B, S, d). Parameters stay dense per gate (SLSTMParams); slstm_forward
and slstm_step fuse them, in O(d^2), into the kernel layout:

- W (4d, d_input) and b (4d,) with head-major rows: head k (s = d / H
  units) owns rows [4sk, 4s(k+1)), holding its z, i, f and o units in that
  order. Pre-activation columns follow the same order.
- one recurrent block R[k] (s, 4s) per head, so off-block entries of the
  dense R matrices are never read or written.

slstm_forward computes the input pre-activations of every step and gate
with one (B*S, d_input) x (d_input, 4d) GEMM before the time loop; inside
it only one (B, s) x (s, 4s) GEMM per head remains. slstm_step and the loop
share the gate arithmetic (_gate_update).

The tape is stacked and time-major: one (S, B, 4d) buffer holds the
pre-activations, overwritten in place by the gate activations, and c, n
and h are (S, B, d) arrays, 7d floats per row and step (the per-step cache
it replaces referenced 13 (B, d) arrays). Previous states come from the
same arrays one step back; c / n is recomputed. slstm_backward writes the
pre-activation gradients into the gate buffer: the only GEMM in its loop is
the per-head carry into h, and after the loop single GEMMs give the W and b
gradients and the input gradient, one GEMM per head the R gradient. It reads
the fused W and R the forward kept on the tape instead of fusing again, so
the gradient belongs to the weights the forward actually ran with.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensorops import Rng, ShapeError, log_sigmoid, sigmoid

_ACTIVATIONS = ("exponential", "sigmoid")


@dataclass(frozen=True)
class GateMode:
    """Cell configuration switches.

    memory_mixing=False freezes every recurrent matrix at zero (gates see
    only the current input). normalizer=False drops the normalizer state
    and applies tanh to the cell state instead, which together with sigmoid
    gates reproduces the classic LSTM exactly.
    """

    forget_activation: str = "exponential"
    input_activation: str = "exponential"
    stabilized: bool = True
    memory_mixing: bool = True
    normalizer: bool = True

    def __post_init__(self):
        if self.forget_activation not in _ACTIVATIONS:
            raise ValueError(f"bad forget_activation {self.forget_activation!r}")
        if self.input_activation not in _ACTIVATIONS:
            raise ValueError(f"bad input_activation {self.input_activation!r}")
        if self.stabilized and not self.normalizer:
            raise ValueError("stabilizer requires the normalizer state")


#: The classic LSTM as a GateMode: sigmoid gates, no normalizer, tanh(c).
LSTM_MODE = GateMode(
    forget_activation="sigmoid",
    input_activation="sigmoid",
    stabilized=False,
    memory_mixing=True,
    normalizer=False,
)


def block_diagonal_mask(d: int, n_heads: int) -> np.ndarray:
    """1/0 mask selecting the n_heads diagonal blocks of a (d, d) matrix."""
    if d % n_heads != 0:
        raise ValueError(f"hidden size {d} not divisible by {n_heads} heads")
    mask = np.zeros((d, d))
    s = d // n_heads
    for k in range(n_heads):
        mask[k * s:(k + 1) * s, k * s:(k + 1) * s] = 1.0
    return mask


@dataclass
class SLSTMParams:
    """Gate weights. W_*: (d_hidden, d_input); R_*: (d_hidden, d_hidden),
    block-diagonal with n_heads equal blocks; b_*: (d_hidden,)."""

    W_z: np.ndarray
    W_i: np.ndarray
    W_f: np.ndarray
    W_o: np.ndarray
    R_z: np.ndarray
    R_i: np.ndarray
    R_f: np.ndarray
    R_o: np.ndarray
    b_z: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_o: np.ndarray
    n_heads: int = 1

    @property
    def d_hidden(self) -> int:
        return self.W_z.shape[0]

    @property
    def d_input(self) -> int:
        return self.W_z.shape[1]

    def recurrent_mask(self) -> np.ndarray:
        return block_diagonal_mask(self.d_hidden, self.n_heads)

    def as_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {prefix + name: getattr(self, name) for name in PARAM_NAMES}

    @classmethod
    def init(cls, rng: Rng, d_input: int, d_hidden: int, n_heads: int = 1,
             memory_mixing: bool = True, forget_bias: float = -1.0) -> "SLSTMParams":
        """Gaussian fan-in init; b_f starts at -1 so the exponential forget
        gate opens around exp(-1) ~ 0.37, inside the contraction regime."""
        mask = block_diagonal_mask(d_hidden, n_heads)
        w_std = 1.0 / np.sqrt(d_input)
        r_std = 1.0 / np.sqrt(d_hidden)
        kw = {}
        for g in "zifo":
            kw[f"W_{g}"] = rng.normal((d_hidden, d_input), 0.0, w_std)
            if memory_mixing:
                kw[f"R_{g}"] = rng.normal((d_hidden, d_hidden), 0.0, r_std) * mask
            else:
                kw[f"R_{g}"] = np.zeros((d_hidden, d_hidden))
            kw[f"b_{g}"] = np.zeros(d_hidden)
        kw["b_f"] = np.full(d_hidden, float(forget_bias))
        return cls(n_heads=n_heads, **kw)


PARAM_NAMES = ("W_z", "W_i", "W_f", "W_o", "R_z", "R_i", "R_f", "R_o",
               "b_z", "b_i", "b_f", "b_o")


@dataclass
class SLSTMState:
    """Recurrent state. m is the log-space stabilizer; None means the
    analytic -inf sentinel (nothing accumulated yet)."""

    h: np.ndarray
    c: np.ndarray
    n: np.ndarray
    m: np.ndarray | None = None

    @classmethod
    def zeros(cls, batch: int, d_hidden: int) -> "SLSTMState":
        z = np.zeros((batch, d_hidden))
        return cls(h=z, c=z.copy(), n=z.copy(), m=None)


@dataclass
class SequenceTape:
    """What slstm_backward needs from one slstm_forward call.

    Arrays are time-major. ``gates`` holds, per step, the activations z,
    i_eff, d_eff and o in the fused head-major layout (see the module
    docstring); in stabilized mode i_eff, d_eff, c and n are the rescaled
    (primed) quantities, and the gradient algebra is the same in both modes
    because h depends only on ratios. h_prev, c_prev and n_prev are the
    arrays shifted by one step, and c / n is recomputed. A sigmoid gate also
    keeps d log(gate) / d pre, which its rescaled value does not determine.
    W and R are the fused weights the forward ran with (copies, not views
    of the parameters). slstm_backward overwrites ``gates`` with the
    gradients, so a tape is consumed by one backward pass.
    """

    x: np.ndarray                 # (B, S, d_input), the input as given
    init: SLSTMState              # state before the first step
    gates: np.ndarray | None      # (S, B, 4d); None once consumed
    c: np.ndarray                 # (S, B, d)
    n: np.ndarray | None          # (S, B, d); None without the normalizer
    h: np.ndarray                 # (S, B, d)
    dlog_i: np.ndarray | None     # (S, B, d) for a sigmoid input gate
    dlog_f: np.ndarray | None     # (S, B, d) for a sigmoid forget gate
    W: np.ndarray                 # (4d, d_input), fused head-major rows
    R: np.ndarray                 # (H, s, 4s), per-head recurrent blocks


def _fused_weights(params: SLSTMParams
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense gate arrays in the fused head-major layout.

    Returns W (4d, d_input) and b (4d,), whose row 4sk + gs + j belongs to
    unit sk + j of gate g (z, i, f, o) in head k, and the per-head
    recurrent blocks R (H, s, 4s) with R[k][j, gs + i] = R_g[sk + i, sk + j],
    so that head k's recurrent pre-activations are h[:, head k] @ R[k].
    Off-block entries of the dense R_g are never read.
    """
    d, H = params.d_hidden, params.n_heads
    if d % H != 0:
        raise ValueError(f"hidden size {d} not divisible by {H} heads")
    s = d // H
    W = np.concatenate([params.W_z, params.W_i, params.W_f, params.W_o])
    b = np.concatenate([params.b_z, params.b_i, params.b_f, params.b_o])
    dense = np.concatenate([params.R_z, params.R_i, params.R_f, params.R_o])
    if H == 1:      # gate-major and head-major rows coincide
        return W, b, dense.T[None]
    W = W.reshape(4, H, s, -1).transpose(1, 0, 2, 3).reshape(4 * d, -1)
    b = b.reshape(4, H, s).transpose(1, 0, 2).reshape(4 * d)
    dense = dense.reshape(4, d, d)
    R = np.empty((H, s, 4, s))
    for k in range(H):
        block = slice(s * k, s * (k + 1))
        R[k] = dense[:, block, block].transpose(2, 0, 1)
    return W, b, R.reshape(H, s, 4 * s)


def _add_recurrent(pre: np.ndarray, h_prev: np.ndarray, R: np.ndarray) -> None:
    """pre (B, 4d) += the per-head recurrent product of h_prev (B, H, s)."""
    rec = np.matmul(h_prev.transpose(1, 0, 2), R)      # (H, B, 4s)
    view = pre.reshape(pre.shape[0], R.shape[0], -1)
    view += rec.transpose(1, 0, 2)


def _log_gate(pre: np.ndarray, activation: str
              ) -> tuple[np.ndarray, np.ndarray | None]:
    """log(gate) and d log(gate) / d pre (None when it is 1), overflow-free."""
    if activation == "exponential":
        return pre, None
    return log_sigmoid(pre), sigmoid(-pre)


def _gate_in_place(pre: np.ndarray, activation: str) -> np.ndarray | None:
    """Overwrite pre with the gate; return d log(gate) / d pre (None: 1)."""
    if activation == "exponential":
        np.exp(pre, out=pre)
        return None
    pre[...] = sigmoid(pre)
    return 1.0 - pre


def _gate_update(pre: np.ndarray, c_prev: np.ndarray, n_prev: np.ndarray,
                 m_prev: np.ndarray | None, mode: GateMode, c: np.ndarray,
                 n: np.ndarray | None, h: np.ndarray):
    """The gate arithmetic of one step, for every GateMode.

    pre is a (B, H, 4, s) view of the step's pre-activations; it is
    overwritten with the activations z, i_eff, d_eff and o. States are
    (B, H, s); the new c, n and h are written into the given arrays (n is
    None without the normalizer). Returns (m, dlog_i, dlog_f); m is None
    outside stabilized mode.
    """
    z, i_eff, d_eff, o = (pre[:, :, k] for k in range(4))
    np.tanh(z, out=z)
    o[...] = sigmoid(o)
    # raw arithmetic may overflow (the probe relies on it); stabilized may not
    errors = contextlib.nullcontext() if mode.stabilized else \
        np.errstate(over="ignore", invalid="ignore", divide="ignore")
    with errors:
        if mode.stabilized:
            log_i, dlog_i = _log_gate(i_eff, mode.input_activation)
            log_f, dlog_f = _log_gate(d_eff, mode.forget_activation)
            if m_prev is None:
                # -inf sentinel: the forget branch cannot win the max, and
                # the decay factor keeps the raw exp(log_f) scaling for c_0
                # and n_0.
                m = np.array(log_i)
            else:
                log_f = log_f + m_prev
                m = np.maximum(log_f, log_i)
            np.exp(np.subtract(log_i, m, out=i_eff), out=i_eff)
            np.exp(np.subtract(log_f, m, out=d_eff), out=d_eff)
        else:
            dlog_i = _gate_in_place(i_eff, mode.input_activation)
            dlog_f = _gate_in_place(d_eff, mode.forget_activation)
            m = None
        np.multiply(d_eff, c_prev, out=c)
        c += i_eff * z
        if n is not None:
            np.multiply(d_eff, n_prev, out=n)
            n += i_eff
            np.divide(c, n, out=h)
        else:
            np.tanh(c, out=h)
        h *= o
    if mode.stabilized and not np.all(np.isfinite(h)):
        raise FloatingPointError("stabilized sLSTM step produced a "
                                 "non-finite hidden state")
    return m, dlog_i, dlog_f


def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., d) -> (..., H, s)."""
    return a.reshape(a.shape[:-1] + (n_heads, -1))


def slstm_step(params: SLSTMParams, x: np.ndarray, prev: SLSTMState,
               mode: GateMode = GateMode()) -> tuple[SLSTMState, np.ndarray]:
    """One recurrent step. x: (B, d_input); returns the new state and the
    step's gate activations (B, 4d), one time slice of a SequenceTape's
    gate buffer."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.d_input:
        raise ShapeError(f"slstm_step: input {x.shape} vs d_input {params.d_input}")
    if prev.h.shape != (x.shape[0], params.d_hidden):
        raise ShapeError(f"slstm_step: state {prev.h.shape} vs "
                         f"expected {(x.shape[0], params.d_hidden)}")
    W, b, R = _fused_weights(params)
    H, B = params.n_heads, x.shape[0]
    pre = x @ W.T
    pre += b
    _add_recurrent(pre, _heads(prev.h, H), R)
    c, h = np.empty((B, params.d_hidden)), np.empty((B, params.d_hidden))
    n = np.empty((B, params.d_hidden)) if mode.normalizer else None
    m, _, _ = _gate_update(
        pre.reshape(B, H, 4, -1), _heads(prev.c, H), _heads(prev.n, H),
        None if prev.m is None else _heads(prev.m, H), mode,
        _heads(c, H), None if n is None else _heads(n, H), _heads(h, H))
    state = SLSTMState(h=h, c=c, n=prev.n if n is None else n,
                       m=None if m is None else m.reshape(B, -1))
    return state, pre


def slstm_forward(params: SLSTMParams, x_seq: np.ndarray,
                  init: SLSTMState | None = None,
                  mode: GateMode = GateMode()) -> tuple[np.ndarray, SequenceTape]:
    """Run the cell over a sequence. x_seq: (B, S, d_input) or (S, d_input).

    Returns h_seq with a matching leading layout (a view of the tape's h)
    and the tape for backward.
    """
    x_seq = np.asarray(x_seq, dtype=np.float64)
    squeeze = x_seq.ndim == 2
    if squeeze:
        x_seq = x_seq[None]
    if x_seq.ndim != 3:
        raise ShapeError(f"slstm_forward: expected (B, S, d), got {x_seq.shape}")
    B, S, d_in = x_seq.shape
    d, H = params.d_hidden, params.n_heads
    if S < 1:
        raise ShapeError("slstm_forward: empty sequence")
    if d_in != params.d_input:
        raise ShapeError(f"slstm_forward: input width {d_in} vs "
                         f"d_input {params.d_input}")
    init = init if init is not None else SLSTMState.zeros(B, d)
    if init.h.shape != (B, d):
        raise ShapeError(f"slstm_forward: state {init.h.shape} vs "
                         f"expected {(B, d)}")
    W, b, R = _fused_weights(params)

    # input projection of every step and gate: one GEMM, time-major rows
    gates = np.empty((S, B, 4 * d))
    x_rows = x_seq.transpose(1, 0, 2).reshape(S * B, d_in)
    np.matmul(x_rows, W.T, out=gates.reshape(S * B, 4 * d))
    del x_rows
    gates += b
    tape = SequenceTape(
        x=x_seq, init=init, gates=gates, c=np.empty((S, B, d)),
        n=np.empty((S, B, d)) if mode.normalizer else None,
        h=np.empty((S, B, d)),
        dlog_i=np.empty((S, B, d)) if mode.input_activation == "sigmoid" else None,
        dlog_f=np.empty((S, B, d)) if mode.forget_activation == "sigmoid" else None,
        W=W, R=R)

    c_all, n_all, h_all = (None if a is None else _heads(a, H)
                           for a in (tape.c, tape.n, tape.h))
    h, c, n = _heads(init.h, H), _heads(init.c, H), _heads(init.n, H)
    m = None if init.m is None else _heads(init.m, H)
    for t in range(S):
        _add_recurrent(gates[t], h, R)
        n_t = None if n_all is None else n_all[t]
        m, dlog_i, dlog_f = _gate_update(gates[t].reshape(B, H, 4, -1),
                                         c, n, m, mode, c_all[t], n_t, h_all[t])
        c, h = c_all[t], h_all[t]
        if n_t is not None:
            n = n_t
        if dlog_i is not None:
            _heads(tape.dlog_i[t], H)[...] = dlog_i
        if dlog_f is not None:
            _heads(tape.dlog_f[t], H)[...] = dlog_f
    h_seq = tape.h.transpose(1, 0, 2)
    if squeeze:
        h_seq = h_seq[0]
    return h_seq, tape


def slstm_backward(params: SLSTMParams, tape: SequenceTape,
                   grad_h_seq: np.ndarray, mode: GateMode = GateMode()
                   ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact BPTT for sum_t <grad_h_seq[t], h_t>; consumes the tape.

    Returns (param grads keyed like PARAM_NAMES, grad wrt the inputs).
    Off-block entries of every R gradient are exact zeros: they are never
    written. The weights come from the tape, as the forward fused them, so
    params is not read.
    """
    grad_h_seq = np.asarray(grad_h_seq, dtype=np.float64)
    squeeze = grad_h_seq.ndim == 2
    if squeeze:
        grad_h_seq = grad_h_seq[None]
    S, B, d = tape.h.shape
    if grad_h_seq.shape != (B, S, d):
        raise ShapeError(f"slstm_backward: grad {grad_h_seq.shape} vs "
                         f"tape {(B, S, d)}")
    if tape.gates is None:
        raise ValueError("slstm_backward: the tape was already consumed")
    W, R = tape.W, tape.R
    H, s = R.shape[0], R.shape[1]
    R_t = R.transpose(0, 2, 1)
    # the gate buffer becomes the pre-activation gradient buffer
    grad_pre, tape.gates = tape.gates, None
    act = grad_pre.reshape(S, B, H, 4, s)
    c_all = _heads(tape.c, H)
    n_all = None if tape.n is None else _heads(tape.n, H)
    init = tape.init
    gh_carry = gc_carry = gn_carry = 0.0
    for t in range(S - 1, -1, -1):
        z, i_eff, d_eff, o = (act[t, :, :, k] for k in range(4))
        c = c_all[t]
        c_prev = c_all[t - 1] if t else _heads(init.c, H)
        gh = _heads(grad_h_seq[:, t], H) + gh_carry
        if mode.normalizer:
            n = n_all[t]
            n_prev = n_all[t - 1] if t else _heads(init.n, H)
            hbar = c / n
            a = gh * o
            a /= n
            gc = a + gc_carry
            a *= hbar
            gn = gn_carry - a
            gn_carry = gn * d_eff
            into_i = gc * z
            into_i += gn
            into_f = gc * c_prev
            into_f += gn * n_prev
        else:
            hbar = np.tanh(c)
            gc = gh * o * (1.0 - hbar * hbar) + gc_carry
            into_i = gc * z
            into_f = gc * c_prev
        gc_carry = gc * d_eff
        # each activation is overwritten by its pre-activation gradient
        # after its last use
        g_z = z * z
        np.subtract(1.0, g_z, out=g_z)
        g_z *= gc
        np.multiply(g_z, i_eff, out=z)
        np.multiply(into_i, i_eff, out=i_eff)
        np.multiply(into_f, d_eff, out=d_eff)
        if tape.dlog_i is not None:
            i_eff *= _heads(tape.dlog_i[t], H)
        if tape.dlog_f is not None:
            d_eff *= _heads(tape.dlog_f[t], H)
        g_o = gh * hbar
        g_o *= 1.0 - o
        np.multiply(g_o, o, out=o)
        rec = np.matmul(grad_pre[t].reshape(B, H, 4 * s).transpose(1, 0, 2), R_t)
        gh_carry = rec.transpose(1, 0, 2)

    rows = grad_pre.reshape(S * B, 4 * d)
    x_rows = tape.x.transpose(1, 0, 2).reshape(S * B, -1)
    grad_W = (rows.T @ x_rows).reshape(H, 4, s, -1)
    del x_rows
    grad_b = rows.sum(axis=0).reshape(H, 4, s)
    grad_x = (rows @ W).reshape(S, B, -1).transpose(1, 0, 2)
    # R gradients in the per-head layout, one GEMM per head over steps
    # 1..S-1 plus step 0's from the initial state
    h_prev = tape.h[:-1].reshape(-1, d)
    grad_R = np.empty((H, s, 4 * s))
    for k in range(H):
        cols, units = slice(4 * s * k, 4 * s * (k + 1)), slice(s * k, s * (k + 1))
        grad_R[k] = h_prev[:, units].T @ rows[B:, cols]
        grad_R[k] += init.h[:, units].T @ rows[:B, cols]
    grad_R = grad_R.reshape(H, s, 4, s)

    grads = {}
    for j, g in enumerate("zifo"):
        grads[f"W_{g}"] = grad_W[:, j].reshape(d, -1)
        grads[f"b_{g}"] = grad_b[:, j].reshape(d)
        dense = np.zeros((d, d))
        for k in range(H):
            dense[s * k:s * (k + 1), s * k:s * (k + 1)] = grad_R[k, :, j].T
        grads[f"R_{g}"] = dense
    if squeeze:
        grad_x = grad_x[0]
    return grads, grad_x


def grad_check(loss_and_grads: Callable[[dict[str, np.ndarray]],
                                        tuple[float, dict[str, np.ndarray]]],
               params: dict[str, np.ndarray], epsilon: float = 1e-5,
               masks: dict[str, np.ndarray] | None = None) -> float:
    """Worst relative error of analytic gradients vs central differences.

    loss_and_grads evaluates the scalar loss and its analytic gradients for
    the given parameter dict. Entries where a mask is zero (frozen
    coordinates, e.g. off-block recurrent weights) are skipped. Relative
    error is |a - n| / max(1e-8, |a| + |n|).
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ValueError(f"epsilon {epsilon} outside [1e-7, 1e-3]")
    loss, analytic = loss_and_grads(params)
    if not np.isfinite(loss):
        raise FloatingPointError("grad_check: non-finite loss")
    worst = 0.0
    for name in sorted(params):
        arr = params[name]
        mask = None if masks is None else masks.get(name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            if mask is not None and mask[idx] == 0:
                continue
            orig = arr[idx]
            arr[idx] = orig + epsilon
            lp, _ = loss_and_grads(params)
            arr[idx] = orig - epsilon
            lm, _ = loss_and_grads(params)
            arr[idx] = orig
            fd = (lp - lm) / (2.0 * epsilon)
            a = analytic[name][idx]
            rel = abs(a - fd) / max(1e-8, abs(a) + abs(fd))
            worst = max(worst, rel)
    return worst
