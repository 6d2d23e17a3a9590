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

Every mode forms i and f in log space (an exponential gate's log is its
pre-activation, a sigmoid gate's is log_sigmoid of it) and then takes one
exp of both. Exponential gates overflow for positive pre-activations, so
stabilized mode subtracts a stabilizer m_t = max(log f_t + m_{t-1}, log i_t)
before that exp; the hidden state is algebraically unchanged because the
exp(-m) rescaling cancels in the c/n ratio. Raw mode is the same recurrence
with m pinned at 0: the textbook arithmetic, overflow included, which the
memory-property probe relies on.

Memory mixing happens within a head, never across heads: each recurrent
matrix Rg is block-diagonal with n_heads (H) equal blocks of s = d / H
units. SLSTMParams stores only what the kernels read:

- W (4d, d_input) and b (4d,) with head-major rows: head k owns rows
  [4sk, 4s(k+1)), its z, i, f and o units in that order;
- R (H, s, 4s), head k's recurrent block R[k], or None without memory
  mixing (the recurrent GEMM is then skipped).

from_gates and gates() convert from and to the 12 per-gate arrays, which
the initializer draws and the probe reads; checkpoints store only the
kernel layout.

States are (B, d) and sequences (B, S, d). slstm_forward computes every
step's input products with one (B*S, d_input) x (d_input, 4d) GEMM before
the time loop, inside which one (B, s) x (s, 4s) GEMM per head remains;
each row block adds the bias b to its own slice of those products just
before its time loop, so the add splits with the blocks. The tape is
time-major: one (S, B, 4d) buffer holds the pre-activations, overwritten
by the gate activations, plus (S, B, d) arrays c, n and h and the
(S*B, d_input) input rows of that GEMM, copied from the batch-major
sequence in row blocks (_time_major_rows).
slstm_backward overwrites the gate buffer with the pre-activation
gradients; after its loop, single GEMMs give the W gradient (from the
tape's input rows) and the b gradient, one GEMM per head the R gradient
and a last GEMM the input gradient, all in the kernel layout, while each
tape array is dropped after its last read. Rows never interact in the
recurrence, so both time loops run once per block of rows
(tensorops.row_slices), with the state restarting for each block: a
block's gate slice, state and scratch stay in cache across its steps. The
blocks go through tensorops.for_blocks: with 2 blocks or more and 2 CPUs
or more, the second half of them runs on a worker thread while the caller
runs the first. A block writes only its own rows and owns its scratch, so
every output keeps the bytes of the plain loop. The input GEMM, the W
gradient and the input gradient go through tensorops.matmul_rows, which
splits a product's output rows over the same two threads once each half
holds _GEMM_SPLIT_WORK multiply-adds; the R gradient's per-head products
run as for_blocks blocks from the same bound. Neither splits a sum, so
these too keep the bytes of the serial products.

Each block owns one gate-major (4, b, d) scratch and a few (b, d) work
buffers, made per call (forward makes them and its stabilizer m as one
(6, b, d) array). The views a step reads are made once per block, before
its time loop: each step's slab of the gate buffer in the scratch's
head-major (b, H, 4, s) shape, the previous h split into heads, and in
backward the tape's c and n rows and the rows of grad_h. A step copies its
slab into the scratch once, runs the gate arithmetic in place on the
contiguous (b, d) gates and, when a tape keeps them, copies the
activations (or their gradients) back once. The recurrent products are
written by np.matmul straight into head-major buffers: forward's
(b, H, 4s) product, which the slab is added to on its way into the
scratch, and backward's (b, d) carry into h, added to grad_h in one
contiguous pass. A sigmoid gate's log and its log-derivative are written
in place, the former through the forward's free work row, so no step
allocates in any mode.

One driver, _run_sequence, runs the input GEMM and the row blocks of both
slstm_forward and slstm_predict; only the tape differs. Both return h as
the batch-major view of the time-major h buffer, and neither copies W, R
or h. slstm_predict allocates the (S, B, 4d) gate buffer and h per call,
as one block, and writes h in forward's layout, but keeps c, n and any
sigmoid dlog in one (B, d) buffer each: no c or n tape, no activation
copy-back. slstm_step runs the time loop (_forward_rows) for one step. A
chain fed by its own output (the probe) runs a whole block of steps as one
time loop: its feed callback writes the next step's input pre-activations
from each new h.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .tensorops import (_ELEMENTWISE_SPLIT_BLOCKS, _GEMM_SPLIT_WORK, Rng,
                        ShapeError, check_fields, for_blocks, log_sigmoid,
                        matmul_rows, row_slices, sigmoid)


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
        """The per-gate arrays (new copies), the inverse of from_gates; the
        probe reads its forget gate and contraction bound from them.
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

    Arrays are time-major. ``x`` holds the rows of the forward's input
    GEMM, step-major: a copy of the caller's (B, S, d_input) sequence that
    backward reads for the W gradient, so the tape does not keep the
    caller's array alive. ``gates`` holds, per step, the activations z,
    i_eff, d_eff and o in the kernel layout;
    i_eff, d_eff, c and n are rescaled by exp(-m), with m pinned at 0 in
    raw mode, and the gradient algebra is the same in both modes because h
    depends only on ratios.
    Previous states are the arrays one step back; c / n is recomputed. A
    sigmoid gate also keeps d log(gate) / d pre, which its rescaled value
    does not determine. The tape keeps no weights: slstm_backward reads
    them from its params, and the GateMode the forward ran from the tape.
    slstm_backward overwrites ``gates``, so a tape is consumed by one
    backward pass, which also drops x, c, n, h and the dlog arrays (sets
    them to None) after their last reads.
    """

    x: np.ndarray | None          # (S*B, d_input), time-major input rows
    init: SLSTMState              # state before the first step
    mode: GateMode                # the mode the forward ran
    gates: np.ndarray | None      # (S, B, 4d); None once consumed
    c: np.ndarray | None          # (S, B, d)
    n: np.ndarray | None          # (S, B, d); None without the normalizer
    h: np.ndarray | None          # (S, B, d)
    dlog_i: np.ndarray | None     # (S, B, d) for a sigmoid input gate
    dlog_f: np.ndarray | None     # (S, B, d) for a sigmoid forget gate


def _head_major(g: np.ndarray, n_heads: int) -> np.ndarray:
    """The (b, H, 4, s) kernel-layout view of a gate-major (4, b, d) array."""
    _, b, d = g.shape
    return g.reshape(4, b, n_heads, d // n_heads).transpose(1, 2, 0, 3)


def _tape_arrays(S: int, B: int, d: int, mode: GateMode,
                 h: np.ndarray | None = None) -> list:
    """Empty (S, B, d) arrays c, n, h, dlog_i, dlog_f; None where the mode
    has none. Given h, the caller's (S, B, d) array, there is no tape: all
    but h are zero-stride views of one (B, d) buffer each, so every step
    overwrites the last."""
    def steps(k: int) -> np.ndarray:
        if h is None:
            return np.empty((S, B, d))
        if k == 2:
            return h
        a = np.empty((B, d))
        return np.lib.stride_tricks.as_strided(a, (S, B, d), (0,) + a.strides)
    return [steps(k) if keep else None for k, keep in enumerate((
        True, mode.normalizer, True, mode.input_activation == "sigmoid",
        mode.forget_activation == "sigmoid"))]


def _forward_rows(pre: np.ndarray, init: SLSTMState, R: np.ndarray | None,
                  n_heads: int, mode: GateMode, out: list, keep: bool,
                  feed: Callable | None = None) -> np.ndarray | None:
    """The time loop of one block of b rows, in every GateMode: pre
    (S, b, 4d) holds the input pre-activations, overwritten with the
    activations z, i_eff, d_eff and o if keep; out holds the (S, b, d)
    arrays of _tape_arrays, where only an exponential gate's dlog array
    may be None. feed(t, h), if given, runs after step t and its copy-back
    and may write pre[t + 1]. Returns the stabilizer m after the last step
    (None outside stabilized mode); a stabilized h that is not finite
    raises FloatingPointError once the loop ends."""
    S, b, d4 = pre.shape
    c_out, n_out, h_out, dlog_i, dlog_f = out
    # one scratch: the four gates, a work buffer and the stabilizer m
    scratch = np.empty((6, b, d4 // 4))
    z, i_eff, d_eff, o, work, m = scratch
    scaled = scratch[1:3]
    packed = _head_major(scratch[:4], n_heads)
    # the views each step reads, made once: its slab of pre in packed's
    # (b, H, 4, s) shape, and (below) the previous h split into heads
    slabs = pre.reshape((S,) + packed.shape)
    sigmoid_gates = [(gate, dlog) for gate, dlog, activation in (
        (i_eff, dlog_i, mode.input_activation),
        (d_eff, dlog_f, mode.forget_activation)) if activation == "sigmoid"]
    if R is not None:
        # the recurrent product, written head-major (b, H, 4s) like a slab
        rec = np.empty((b, n_heads, d4 // n_heads))
        rec_out, rec = rec.transpose(1, 0, 2), rec.reshape(packed.shape)
        h_heads = h_out.reshape(S, b, n_heads, -1).transpose(0, 2, 1, 3)
        h_prev = init.h.reshape(b, n_heads, -1).transpose(1, 0, 2)
    c, n, m_prev = init.c, init.n, init.m
    # raw arithmetic may overflow (the probe relies on it); stabilized may not
    errors = contextlib.nullcontext() if mode.stabilized else \
        np.errstate(over="ignore", invalid="ignore", divide="ignore")
    with errors:
        for t in range(S):
            slab = slabs[t]
            if R is None:
                packed[...] = slab
            else:
                np.matmul(h_prev, R, out=rec_out)
                np.add(slab, rec, out=packed)
                h_prev = h_heads[t]
            np.tanh(z, out=z)
            sigmoid(o, out=o)
            # log of a sigmoid gate, and its derivative sigmoid(-x)
            for gate, dlog in sigmoid_gates:
                sigmoid(np.negative(gate, out=dlog[t]), out=dlog[t])
                log_sigmoid(gate, out=gate, work=work)
            # i_eff and d_eff hold log i and log f; raw mode keeps m at 0
            if mode.stabilized:
                if m_prev is None:
                    # -inf sentinel: the forget branch cannot win the max,
                    # and the decay factor keeps the raw exp(log f) scaling
                    # for c_0 and n_0.
                    np.copyto(m, i_eff)
                else:
                    d_eff += m_prev
                    np.maximum(d_eff, i_eff, out=m)
                m_prev = m
                np.subtract(scaled, m, out=scaled)
            np.exp(scaled, out=scaled)
            c = np.multiply(d_eff, c, out=c_out[t])
            c += np.multiply(i_eff, z, out=work)
            if n_out is not None:
                n = np.multiply(d_eff, n, out=n_out[t])
                n += i_eff
                h = np.divide(c, n, out=h_out[t])
            else:
                h = np.tanh(c, out=h_out[t])
            h *= o
            if keep:
                slab[...] = packed
            if feed is not None:
                feed(t, h)
    if mode.stabilized and not np.isfinite(h_out).all():
        raise FloatingPointError("stabilized sLSTM step produced a "
                                 "non-finite hidden state")
    return m if mode.stabilized else None


def _check_state(caller: str, state: SLSTMState, B: int, d: int) -> None:
    """ShapeError naming the first of h, c, n and m (when given) that is
    not (B, d): numpy would broadcast a (1, d) or (d,) state silently."""
    for name in "hcnm":
        a = getattr(state, name)
        if name == "m" and a is None:
            continue
        if np.shape(a) != (B, d):
            raise ShapeError(f"{caller}: state {name} {np.shape(a)} vs "
                             f"expected {(B, d)}")


def slstm_step(params: SLSTMParams, x: np.ndarray, prev: SLSTMState,
               mode: GateMode = GateMode()) -> SLSTMState:
    """One recurrent step. x: (B, d_input); returns the new state. The
    step runs the sequence time loop (_forward_rows) once over all B rows
    and keeps no gate activations."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != params.d_input:
        raise ShapeError(f"slstm_step: input {x.shape} vs d_input {params.d_input}")
    _check_state("slstm_step", prev, x.shape[0], params.d_hidden)
    pre = x @ params.W.T
    pre += params.b
    out = _tape_arrays(1, x.shape[0], params.d_hidden, mode)
    m = _forward_rows(pre[None], prev, params.R, params.n_heads, mode, out,
                      keep=False)
    c, n, h = (None if a is None else a[0] for a in out[:3])
    return SLSTMState(h=h, c=c, n=prev.n if n is None else n, m=m)


def _sequence(caller: str, params: SLSTMParams,
              x_seq: np.ndarray) -> np.ndarray:
    """x_seq as a float64 (B, S, d_input) array; ShapeError for any other
    shape."""
    x_seq = np.asarray(x_seq, dtype=np.float64)
    if x_seq.ndim != 3:
        raise ShapeError(f"{caller}: expected (B, S, d), got {x_seq.shape}")
    if x_seq.shape[1] < 1:
        raise ShapeError(f"{caller}: empty sequence")
    if x_seq.shape[2] != params.d_input:
        raise ShapeError(f"{caller}: input width {x_seq.shape[2]} vs "
                         f"d_input {params.d_input}")
    return x_seq


def _time_major_rows(x_seq: np.ndarray) -> np.ndarray:
    """A copy of the (B, S, d_input) x_seq as the input GEMM's time-major
    (S*B, d_input) rows, copied a row block at a time through for_blocks,
    which may run two halves at once, to the same bytes."""
    B, S, d_in = x_seq.shape
    rows = np.empty((S, B, d_in))

    def run(blocks: list) -> None:
        for blk in blocks:
            rows[:, blk] = x_seq[blk].transpose(1, 0, 2)
    for_blocks(run, row_slices(x_seq.shape), _ELEMENTWISE_SPLIT_BLOCKS)
    return rows.reshape(S * B, d_in)


def _run_sequence(params: SLSTMParams, x_rows: np.ndarray, init: SLSTMState,
                  mode: GateMode, gates: np.ndarray, out: list,
                  keep: bool) -> None:
    """slstm_forward's and slstm_predict's driver: one GEMM of the
    time-major (S*B, d_input) input rows writes every step's input
    pre-activations into the time-major (S, B, 4d) gates, then the time
    loop runs per row block into the (S, B, d) arrays out (c, n, h, dlog_i,
    dlog_f; see _tape_arrays). Each row block adds the bias b to its own
    gate slice just before its time loop. With keep the gate buffer ends
    up holding the activations."""
    S, B, d4 = gates.shape
    matmul_rows(x_rows, params.W.T, gates.reshape(S * B, d4))

    def run(blocks: list) -> None:
        for blk in blocks:
            rows = SLSTMState(*(None if a is None else a[blk]
                                for a in (init.h, init.c, init.n, init.m)))
            pre = gates[:, blk]
            pre += params.b
            _forward_rows(pre, rows, params.R, params.n_heads, mode,
                          [None if a is None else a[:, blk] for a in out], keep)
    for_blocks(run, row_slices(gates.shape[1:]))


def slstm_forward(params: SLSTMParams, x_seq: np.ndarray,
                  init: SLSTMState | None = None,
                  mode: GateMode = GateMode()) -> tuple[np.ndarray, SequenceTape]:
    """Run the cell over a sequence. x_seq: (B, S, d_input).

    Returns h_seq (B, S, d), the batch-major view of the tape's time-major
    h, and the tape for backward.
    """
    x_seq = _sequence("slstm_forward", params, x_seq)
    B, S, _ = x_seq.shape
    d = params.d_hidden
    init = init if init is not None else SLSTMState.zeros(B, d)
    _check_state("slstm_forward", init, B, d)
    # the input GEMM's time-major rows, kept on the tape for the W gradient
    x_rows = _time_major_rows(x_seq)
    out = _tape_arrays(S, B, d, mode)
    gates = np.empty((S, B, 4 * d))
    _run_sequence(params, x_rows, init, mode, gates, out, keep=True)
    tape = SequenceTape(x_rows, init, mode, gates, *out)
    return tape.h.transpose(1, 0, 2), tape


def slstm_predict(params: SLSTMParams, x_seq: np.ndarray,
                  mode: GateMode = GateMode()) -> np.ndarray:
    """slstm_forward(params, x_seq, None, mode)[0] bit for bit, without a
    tape: the evaluation path. x_seq: (B, S, d_input); h_seq (B, S, d) is,
    as in slstm_forward, the batch-major view of a time-major h.

    Runs slstm_forward's driver into the same layouts: one (S, B, 4d) gate
    buffer per call and a time-major h, both views of one allocation, so
    that a call's largest buffers come and go as one heap block. c, n and
    the sigmoid dlog arrays are zero-stride views of one (B, d) buffer
    each: no c or n tape, no activation copy-back.
    """
    x_seq = _sequence("slstm_predict", params, x_seq)
    B, S, _ = x_seq.shape
    d = params.d_hidden
    gates, h = np.split(np.empty(5 * S * B * d), [4 * S * B * d])
    out = _tape_arrays(S, B, d, mode, h=h.reshape(S, B, d))
    _run_sequence(params, _time_major_rows(x_seq), SLSTMState.zeros(B, d),
                  mode, gates.reshape(S, B, 4 * d), out, keep=False)
    return out[2].transpose(1, 0, 2)


def _backward_rows(grad: np.ndarray, grad_h: np.ndarray, tape: SequenceTape,
                   blk: slice, R_t: np.ndarray | None, n_heads: int) -> None:
    """slstm_backward's time loop over the rows blk: grad (S, b, 4d), the
    rows' part of the tape's gate buffer, holds their activations and is
    overwritten with their pre-activation gradients; grad_h (S, b, d) is
    dloss / dh_t. The carries into h, c and n start at 0."""
    S, b, d4 = grad.shape
    d, s = d4 // 4, d4 // 4 // n_heads
    # the step's gates, gate-major, and (b, d) work buffers
    g = np.empty((4, b, d))
    packed = _head_major(g, n_heads)
    z, i_eff, d_eff, o = g
    work = np.empty((8, b, d))
    gh, hbar, gc, gn, into_i, into_f, gc_next, gn_next = work
    # the views each step reads, made once
    slabs = grad.reshape((S,) + packed.shape)
    init, normalizer = tape.init, tape.mode.normalizer
    c_seq = tape.c[:, blk]
    c_prev = [init.c[blk], *c_seq[:-1]]
    if normalizer:
        n_seq = tape.n[:, blk]
        n_prev = [init.n[blk], *n_seq[:-1]]
    dlogs = [(a, dlog[:, blk]) for a, dlog in
             ((i_eff, tape.dlog_i), (d_eff, tape.dlog_f)) if dlog is not None]
    if R_t is not None:
        # the carry into h, written head-major (b, H, s) like gh
        carry = np.empty((b, d))
        carry_out = carry.reshape(b, n_heads, s).transpose(1, 0, 2)
        grad_heads = grad.reshape(S, b, n_heads, 4 * s).transpose(0, 2, 1, 3)
    gh_carry = gc_carry = gn_carry = 0.0
    for t in range(S - 1, -1, -1):
        slab = slabs[t]
        packed[...] = slab
        np.add(grad_h[t], gh_carry, out=gh)
        if normalizer:
            n = n_seq[t]
            np.divide(c_seq[t], n, out=hbar)
            a = np.multiply(gh, o, out=gn)
            a /= n
            np.add(a, gc_carry, out=gc)
            a *= hbar
            np.subtract(gn_carry, a, out=gn)
            gn_carry = np.multiply(gn, d_eff, out=gn_next)
            np.multiply(gc, z, out=into_i)
            into_i += gn
            np.multiply(gc, c_prev[t], out=into_f)
            into_f += np.multiply(gn, n_prev[t], out=gn)
        else:
            np.tanh(c_seq[t], out=hbar)
            np.multiply(hbar, hbar, out=gn)
            np.subtract(1.0, gn, out=gn)
            np.multiply(gh, o, out=gc)
            gc *= gn
            gc += gc_carry
            np.multiply(gc, z, out=into_i)
            np.multiply(gc, c_prev[t], out=into_f)
        gc_carry = np.multiply(gc, d_eff, out=gc_next)
        # each activation is overwritten by its pre-activation gradient
        # after its last use
        g_z = np.multiply(z, z, out=gn)
        np.subtract(1.0, g_z, out=g_z)
        g_z *= gc
        np.multiply(g_z, i_eff, out=z)
        np.multiply(into_i, i_eff, out=i_eff)
        np.multiply(into_f, d_eff, out=d_eff)
        for a, dlog in dlogs:
            a *= dlog[t]
        g_o = np.multiply(gh, hbar, out=gh)
        g_o *= np.subtract(1.0, o, out=hbar)
        np.multiply(g_o, o, out=o)
        slab[...] = packed
        if R_t is not None:
            np.matmul(grad_heads[t], R_t, out=carry_out)
            gh_carry = carry


def slstm_backward(params: SLSTMParams, tape: SequenceTape,
                   grad_h_seq: np.ndarray
                   ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact BPTT for sum_t <grad_h_seq[t], h_t>; consumes the tape.

    Returns (param grads keyed like params.as_dict(), in the kernel
    layout; grad wrt the inputs (B, S, d_input)). grad_h_seq: (B, S, d).
    params must hold the weights the forward ran with: the tape keeps no
    copy, so run backward before anything updates them.

    Each tape array is dropped right after its last read, so the caller's
    tape frees it unless something else holds it: the gate buffer on entry
    (it becomes the pre-activation gradient buffer, freed on return), c, n
    and the dlog arrays after the time loop, x after the W gradient, h
    after the R gradient. The input gradient is computed last. A consumed
    tape raises ValueError.
    """
    if tape.gates is None:
        raise ValueError("slstm_backward: the tape was already consumed")
    grad_h_seq = np.asarray(grad_h_seq, dtype=np.float64)
    S, B, d = tape.h.shape
    if grad_h_seq.shape != (B, S, d):
        raise ShapeError(f"slstm_backward: grad {grad_h_seq.shape} vs "
                         f"tape {(B, S, d)}")
    H = params.n_heads
    s = d // H
    R_t = None if params.R is None else params.R.transpose(0, 2, 1)
    init = tape.init
    # the gate buffer becomes the pre-activation gradient buffer
    grad_pre, tape.gates = tape.gates, None
    grad_h_seq = grad_h_seq.transpose(1, 0, 2)

    def run(blocks: list) -> None:
        for blk in blocks:
            _backward_rows(grad_pre[:, blk], grad_h_seq[:, blk], tape, blk,
                           R_t, H)
    for_blocks(run, row_slices(grad_pre.shape[1:]))

    tape.c = tape.n = tape.dlog_i = tape.dlog_f = None
    rows = grad_pre.reshape(S * B, 4 * d)
    grads = {"W": matmul_rows(rows.T, tape.x), "b": rows.sum(axis=0)}
    tape.x = None
    if params.R is not None:
        # per head: steps 1..S-1, then step 0 from the initial state
        h_prev = tape.h[:-1].reshape(-1, d)
        grads["R"] = np.empty((H, s, 4 * s))
        heads = list(range(H))

        def run(part: list) -> None:
            for k in part:
                cols = slice(4 * s * k, 4 * s * (k + 1))
                units = slice(s * k, s * (k + 1))
                grads["R"][k] = h_prev[:, units].T @ rows[B:, cols]
                grads["R"][k] += init.h[:, units].T @ rows[:B, cols]
        # whole products per head, so no byte depends on the split; split
        # when the worker's H // 2 heads hold matmul_rows' work a half
        if H // 2 * 4 * s * s * S * B >= _GEMM_SPLIT_WORK:
            for_blocks(run, heads)
        else:
            run(heads)
        del h_prev
    tape.h = None
    grad_x = matmul_rows(rows, params.W).reshape(S, B, -1).transpose(1, 0, 2)
    return grads, grad_x


def grad_check(loss_and_grads: Callable[[dict[str, np.ndarray]],
                                        tuple[float, dict[str, np.ndarray]]],
               params: dict[str, np.ndarray], epsilon: float = 1e-5) -> float:
    """Worst relative error of analytic gradients vs central differences.

    loss_and_grads evaluates the scalar loss and its analytic gradients for
    the given parameter dict. Relative error is
    |a - n| / max(1e-8, |a| + |n|); a non-finite one (a NaN analytic entry
    or loss at a perturbed point) returns inf at once. Each perturbed entry
    is restored, also when loss_and_grads raises.
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
            try:
                arr[idx] = orig + epsilon
                lp, _ = loss_and_grads(params)
                arr[idx] = orig - epsilon
                lm, _ = loss_and_grads(params)
            finally:
                arr[idx] = orig
            fd = (lp - lm) / (2.0 * epsilon)
            a = analytic[name][idx]
            rel = abs(a - fd) / max(1e-8, abs(a) + abs(fd))
            if not np.isfinite(rel):
                return np.inf
            worst = max(worst, rel)
    return worst
