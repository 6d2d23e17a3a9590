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

Memory mixing happens within a head, never across heads: each recurrent
matrix Rg is block-diagonal with n_heads (H) equal blocks of s = d / H
units. SLSTMParams stores only what the kernels read:

- W (4d, d_input) and b (4d,) with head-major rows: head k owns rows
  [4sk, 4s(k+1)), its z, i, f and o units in that order;
- R (H, s, 4s), head k's recurrent block R[k], or None without memory
  mixing (the recurrent GEMM is then skipped).

from_gates and gates() convert from and to the 12 per-gate arrays, which
the initializer draws, version-1 checkpoints store and the probe reads.

States are (B, d) and sequences (B, S, d). slstm_forward computes every
step's input pre-activations with one (B*S, d_input) x (d_input, 4d) GEMM
before the time loop, inside which one (B, s) x (s, 4s) GEMM per head
remains; slstm_step shares the gate arithmetic (_gate_update). The tape is
time-major: one (S, B, 4d) buffer holds the pre-activations, overwritten by
the gate activations, plus (S, B, d) arrays c, n and h. slstm_backward
overwrites the gate buffer with the pre-activation gradients; after its
loop, single GEMMs give the W, b and input gradients and one GEMM per head
the R gradient, all in the kernel layout.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .tensorops import Rng, ShapeError, check_fields, log_sigmoid, sigmoid


@dataclass(frozen=True)
class GateMode:
    """Cell configuration switches.

    memory_mixing=False gives cells no recurrent weights (SLSTMParams.R is
    None; gates see only the current input). normalizer=False drops the normalizer state
    and applies tanh to the cell state instead, which together with sigmoid
    gates reproduces the classic LSTM exactly.
    """

    forget_activation: Literal["exponential", "sigmoid"] = "exponential"
    input_activation: Literal["exponential", "sigmoid"] = "exponential"
    stabilized: bool = True
    memory_mixing: bool = True
    normalizer: bool = True

    def __post_init__(self):
        check_fields(self)
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


#: Per-gate arrays, g in z, i, f, o: Wg (d, d_input), block-diagonal Rg
#: (d, d) and bg (d,).
GATE_NAMES = ("W_z", "W_i", "W_f", "W_o", "R_z", "R_i", "R_f", "R_o",
              "b_z", "b_i", "b_f", "b_o")


@dataclass
class SLSTMParams:
    """Cell weights in the kernel layout (see the module docstring)."""

    W: np.ndarray
    b: np.ndarray
    R: np.ndarray | None
    n_heads: int = 1

    @property
    def d_hidden(self) -> int:
        return self.b.shape[0] // 4

    @property
    def d_input(self) -> int:
        return self.W.shape[1]

    def as_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        """The trainable arrays, keyed W, b and (with memory mixing) R."""
        out = {prefix + "W": self.W, prefix + "b": self.b}
        if self.R is not None:
            out[prefix + "R"] = self.R
        return out

    @classmethod
    def from_gates(cls, gates: dict[str, np.ndarray],
                   n_heads: int) -> "SLSTMParams":
        """Fuse per-gate arrays (keyed like GATE_NAMES) into the kernel
        layout: row 4sk + gs + j of W and b is unit sk + j of gate g in head
        k, and R[k][j, gs + i] = Rg[sk + i, sk + j]. Off-block entries of
        the Rg are not read; without Rg entries R is None."""
        d, H = gates["W_z"].shape[0], n_heads
        if d % H != 0:
            raise ValueError(f"hidden size {d} not divisible by {H} heads")
        s = d // H
        W = np.concatenate([gates[f"W_{g}"] for g in "zifo"])
        W = W.reshape(4, H, s, -1).transpose(1, 0, 2, 3).reshape(4 * d, -1)
        b = np.concatenate([gates[f"b_{g}"] for g in "zifo"])
        b = b.reshape(4, H, s).transpose(1, 0, 2).reshape(4 * d)
        R = None
        if "R_z" in gates:
            R = np.empty((H, s, 4, s))
            for k in range(H):
                block = slice(s * k, s * (k + 1))
                for j, g in enumerate("zifo"):
                    R[k, :, j] = gates[f"R_{g}"][block, block].T
            R = R.reshape(H, s, 4 * s)
        return cls(W=W, b=b, R=R, n_heads=H)

    def gates(self) -> dict[str, np.ndarray]:
        """The per-gate arrays (new copies), the inverse of from_gates.
        Off-block entries of each Rg are zero; without R there are no Rg."""
        d, H = self.d_hidden, self.n_heads
        s = d // H
        W = self.W.reshape(H, 4, s, -1)
        b = self.b.reshape(H, 4, s)
        R = None if self.R is None else self.R.reshape(H, s, 4, s)
        out = {}
        for j, g in enumerate("zifo"):
            out[f"W_{g}"] = W[:, j].reshape(d, -1).copy()
            out[f"b_{g}"] = b[:, j].reshape(d).copy()
            if R is not None:
                dense = np.zeros((d, d))
                for k in range(H):
                    dense[s * k:s * (k + 1), s * k:s * (k + 1)] = R[k, :, j].T
                out[f"R_{g}"] = dense
        return {name: out[name] for name in GATE_NAMES if name in out}

    @classmethod
    def init(cls, rng: Rng, d_input: int, d_hidden: int, n_heads: int = 1,
             memory_mixing: bool = True, forget_bias: float = -1.0) -> "SLSTMParams":
        """Gaussian fan-in init; b_f starts at -1 so the exponential forget
        gate opens around exp(-1) ~ 0.37, inside the contraction regime.
        Each Rg is drawn dense (d, d) and only its diagonal blocks are
        kept; without memory mixing no Rg is drawn and R is None."""
        w_std = 1.0 / np.sqrt(d_input)
        r_std = 1.0 / np.sqrt(d_hidden)
        gates = {}
        for g in "zifo":
            gates[f"W_{g}"] = rng.normal((d_hidden, d_input), 0.0, w_std)
            if memory_mixing:
                gates[f"R_{g}"] = rng.normal((d_hidden, d_hidden), 0.0, r_std)
            gates[f"b_{g}"] = np.zeros(d_hidden)
        gates["b_f"] = np.full(d_hidden, float(forget_bias))
        return cls.from_gates(gates, n_heads)


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
    i_eff, d_eff and o in the kernel layout; in stabilized mode i_eff,
    d_eff, c and n are the rescaled (primed) quantities, and the gradient
    algebra is the same in both modes because h depends only on ratios.
    Previous states are the arrays one step back; c / n is recomputed. A
    sigmoid gate also keeps d log(gate) / d pre, which its rescaled value
    does not determine. W and R are copies of the weights the forward ran
    with. slstm_backward overwrites ``gates``, so a tape is consumed by one
    backward pass.
    """

    x: np.ndarray                 # (B, S, d_input), the input as given
    init: SLSTMState              # state before the first step
    gates: np.ndarray | None      # (S, B, 4d); None once consumed
    c: np.ndarray                 # (S, B, d)
    n: np.ndarray | None          # (S, B, d); None without the normalizer
    h: np.ndarray                 # (S, B, d)
    dlog_i: np.ndarray | None     # (S, B, d) for a sigmoid input gate
    dlog_f: np.ndarray | None     # (S, B, d) for a sigmoid forget gate
    W: np.ndarray                 # (4d, d_input), head-major rows
    R: np.ndarray | None          # (H, s, 4s); None without memory mixing


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
    H, B = params.n_heads, x.shape[0]
    pre = x @ params.W.T
    pre += params.b
    if params.R is not None:
        _add_recurrent(pre, _heads(prev.h, H), params.R)
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
    R = None if params.R is None else params.R.copy()

    # input projection of every step and gate: one GEMM, time-major rows
    gates = np.empty((S, B, 4 * d))
    x_rows = x_seq.transpose(1, 0, 2).reshape(S * B, d_in)
    np.matmul(x_rows, params.W.T, out=gates.reshape(S * B, 4 * d))
    del x_rows
    gates += params.b
    tape = SequenceTape(
        x=x_seq, init=init, gates=gates, c=np.empty((S, B, d)),
        n=np.empty((S, B, d)) if mode.normalizer else None,
        h=np.empty((S, B, d)),
        dlog_i=np.empty((S, B, d)) if mode.input_activation == "sigmoid" else None,
        dlog_f=np.empty((S, B, d)) if mode.forget_activation == "sigmoid" else None,
        W=params.W.copy(), R=R)

    c_all, n_all, h_all = (None if a is None else _heads(a, H)
                           for a in (tape.c, tape.n, tape.h))
    h, c, n = _heads(init.h, H), _heads(init.c, H), _heads(init.n, H)
    m = None if init.m is None else _heads(init.m, H)
    for t in range(S):
        if R is not None:
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

    Returns (param grads keyed like params.as_dict(), in the kernel
    layout; grad wrt the inputs). The weights come from the tape, as the
    forward ran with them; of params only n_heads is read.
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
    H = params.n_heads
    s = d // H
    R_t = None if tape.R is None else tape.R.transpose(0, 2, 1)
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
        if R_t is not None:
            rec = np.matmul(grad_pre[t].reshape(B, H, 4 * s).transpose(1, 0, 2),
                            R_t)
            gh_carry = rec.transpose(1, 0, 2)

    rows = grad_pre.reshape(S * B, 4 * d)
    x_rows = tape.x.transpose(1, 0, 2).reshape(S * B, -1)
    grads = {"W": rows.T @ x_rows, "b": rows.sum(axis=0)}
    del x_rows
    grad_x = (rows @ tape.W).reshape(S, B, -1).transpose(1, 0, 2)
    if tape.R is not None:
        # per head: steps 1..S-1, then step 0 from the initial state
        h_prev = tape.h[:-1].reshape(-1, d)
        grads["R"] = np.empty((H, s, 4 * s))
        for k in range(H):
            cols, units = slice(4 * s * k, 4 * s * (k + 1)), slice(s * k, s * (k + 1))
            grads["R"][k] = h_prev[:, units].T @ rows[B:, cols]
            grads["R"][k] += init.h[:, units].T @ rows[:B, cols]
    if squeeze:
        grad_x = grad_x[0]
    return grads, grad_x


def grad_check(loss_and_grads: Callable[[dict[str, np.ndarray]],
                                        tuple[float, dict[str, np.ndarray]]],
               params: dict[str, np.ndarray], epsilon: float = 1e-5) -> float:
    """Worst relative error of analytic gradients vs central differences.

    loss_and_grads evaluates the scalar loss and its analytic gradients for
    the given parameter dict. Relative error is
    |a - n| / max(1e-8, |a| + |n|).
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ValueError(f"epsilon {epsilon} outside [1e-7, 1e-3]")
    loss, analytic = loss_and_grads(params)
    if not np.isfinite(loss):
        raise FloatingPointError("grad_check: non-finite loss")
    worst = 0.0
    for name in sorted(params):
        arr = params[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
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
