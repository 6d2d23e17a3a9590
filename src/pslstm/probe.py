"""Empirical memory-property probe for the sLSTM cell.

The cell with its own output fed back (x_t = y_{t-1}, no external input)
is a homogeneous Markov chain:

    y_t = tanh(W_out h_t + b_out) + eps_t,    eps_t ~ N(0, noise_std^2)

Depending on the forget gate's range the chain either contracts - when the
analytic gate bound sup exp(Wf u + Rf v + bf) over the input box stays
below 1, the chain is geometrically ergodic and its output autocorrelation
decays like rho^k - or, with positive forget pre-activations, amplifies
the cell and normalizer states exponentially until raw arithmetic
overflows, even while their ratio stays bounded.

One generator, _run_chain, steps every chain and records y, c, n and the h
that fed each step, in blocks of 512 rows. Each block is one time loop of
the cell into the record rows, fed its next input from each new h; one
finiteness test per block finds the step where a raw chain overflows, and a
stabilized chain raises at the end of the block where h first goes
non-finite. simulate_chain reduces the trace statistics from each block,
the forget gate from the recorded inputs; two_trajectory_coupling runs it
once per trajectory and takes the gaps from the two records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from .cells import (GateMode, SLSTMParams, SLSTMState, _forward_rows,
                    slstm_step)  # unused: kept because perfbench wraps it
from .tensorops import (_MAX_VALUES, AtLeast0, AtLeast1, DataError,
                        NonNegative, Positive, Rng, check_fields, write_csv,
                        write_json)


@dataclass
class ChainConfig:
    p: AtLeast1 = 1                # output dimension
    q: AtLeast1 = 8                # hidden dimension
    noise_std: NonNegative = 0.1
    horizon: Annotated[int, (">=", 2)] = 2000
    seed: AtLeast0 = 0
    forget_bias_offset: float = 0.0
    mode: Literal["raw", "stabilized"] = "raw"
    weight_scale: NonNegative = 0.3
    out_scale: NonNegative = 1.0
    target_gate_bound: Positive | None = None  # sets b_f analytically if given
    positive_feedback: bool = False            # nonnegative z/output weights
    param_seed: AtLeast0 | None = None         # weights seed; defaults to seed

    def __post_init__(self):
        check_fields(self)
        # the horizon's (p + q)-wide trace and noise rows and the q x (p + q)
        # weights of each gate bound what a chain holds
        if (self.horizon + 4 * self.q) * (self.p + self.q) > _MAX_VALUES:
            raise ValueError(f"the chain would hold more than "
                             f"{_MAX_VALUES:,} values")


def chain_params(config: ChainConfig) -> tuple[SLSTMParams, np.ndarray, np.ndarray]:
    """Deterministic cell parameters and output map for a chain config.

    If target_gate_bound is set, the forget bias of each row is chosen so
    the analytic sup of the forget gate over the unit input box equals the
    bound exactly. forget_bias_offset then shifts it (used to push the
    chain into the amplification regime). positive_feedback makes the
    cell-input and output weights nonnegative, which gives the contracting
    chain a persistent (non-oscillatory) autocorrelation signature.
    """
    pseed = config.seed if config.param_seed is None else config.param_seed
    rng = Rng(pseed).spawn(77)
    p, q = config.p, config.q
    s = config.weight_scale
    # skip the draws of a default init (Wg, Rg per gate): they fix where
    # these weights start in the stream
    for _ in "zifo":
        rng.normal((q, p)), rng.normal((q, q))
    gates = {f"b_{g}": np.zeros(q) for g in "zifo"}
    for g in "zifo":
        W = rng.normal((q, p), 0.0, s / np.sqrt(p))
        R = rng.normal((q, q), 0.0, s / np.sqrt(q))
        if config.positive_feedback and g == "z":
            W, R = np.abs(W), np.abs(R)
        gates[f"W_{g}"], gates[f"R_{g}"] = W, R
    if config.target_gate_bound is not None:
        rowsum = (np.abs(gates["W_f"]).sum(axis=1)
                  + np.abs(gates["R_f"]).sum(axis=1))
        b_f = np.log(config.target_gate_bound) - rowsum
    else:
        b_f = np.full(q, -1.0)
    gates["b_f"] = b_f + config.forget_bias_offset
    W_out = rng.normal((p, q), 0.0, config.out_scale / np.sqrt(q))
    if config.positive_feedback:
        W_out = np.abs(W_out)
    b_out = np.zeros(p)
    return SLSTMParams.from_gates(gates, 1), W_out, b_out


@dataclass
class ChainTrace:
    y_seq: np.ndarray              # (horizon, p)
    f_norm: np.ndarray             # per-step inf-norms
    c_norm: np.ndarray
    n_norm: np.ndarray
    ratio_norm: np.ndarray         # ||c/n||_inf
    finite: np.ndarray             # monotone flags; False stays False
    overflow_step: int | None      # first step with a non-finite state


def _gate_f(gates: dict[str, np.ndarray], x: np.ndarray,
            h: np.ndarray) -> np.ndarray:
    """The forget gate from the per-gate arrays of SLSTMParams.gates()."""
    with np.errstate(over="ignore"):
        return np.exp(x @ gates["W_f"].T + h @ gates["R_f"].T + gates["b_f"])


def _chain_noise(config: ChainConfig, horizon: int) -> np.ndarray:
    """The output noise eps_t, one (p,) row per step (zeros at std 0)."""
    return Rng(config.seed).spawn(99).normal((horizon, config.p), 0.0,
                                             config.noise_std)


def _run_chain(params: SLSTMParams, W_out: np.ndarray, b_out: np.ndarray,
               mode: GateMode, noise: np.ndarray, state: SLSTMState):
    """Step one B=1 chain from y_0 = 0 and `state`, one step per noise row,
    and yield its record in blocks (t0, y, c, n, h, overflow_step): row 0 of
    each array is the row before step t0, row k + 1 what step t0 + k made.
    The views are overwritten by the next block. The chain stops after
    overflow_step, the first step whose c, n or y is not finite.

    A block of up to 512 steps is one time loop of the cell (_forward_rows)
    into the record rows; its feed writes y and the next step's input with
    slstm_step's ops, and m carries across blocks. One vectorised test per
    block finds the first non-finite row, so a raw chain steps on to the end
    of the block it overflows in. The caller holds np.errstate; a stabilized
    chain raises FloatingPointError at the end of the block where h first
    goes non-finite, before that block is yielded."""
    (H, p), q, W_t, W_in = noise.shape, params.d_hidden, W_out.T, params.W.T
    block = 512                 # rows per block: bounds the record's memory
    rows = np.empty((block + 1, p + 3 * q))             # y | c | n | h
    y, c, n, h = np.split(rows[:, None], [p, p + q, p + 2 * q], axis=2)
    y[0], c[0], n[0], h[0] = 0.0, state.c, state.n, state.h
    pre, m = np.empty((block + 1, 1, 4 * q)), state.m    # row k feeds step k
    np.matmul(y[0], W_in, out=pre[0])
    pre[0] += params.b

    def feed(t: int, h_t: np.ndarray) -> None:
        np.add(np.tanh(h_t @ W_t + b_out), noise[t0 + t], out=y[t + 1])
        np.matmul(y[t + 1], W_in, out=pre[t + 1])
        pre[t + 1] += params.b

    for t0 in range(0, H, block):
        k = min(block, H - t0)
        m = _forward_rows(pre[:k], SLSTMState(h[0], c[0], n[0], m), params.R,
                          params.n_heads, mode,
                          (c[1:k + 1], n[1:k + 1], h[1:k + 1], None, None),
                          keep=False, feed=feed)
        finite = np.isfinite(rows[1:k + 1, :p + 2 * q]).all(axis=1)
        stop = not finite.all()
        if stop:
            k = int(finite.argmin()) + 1
        yield (t0, *np.split(rows[:k + 1], [p, p + q, p + 2 * q], axis=1),
               t0 + k - 1 if stop else None)
        if stop:
            return
        rows[0], pre[0] = rows[k], pre[k]


def simulate_chain(config: ChainConfig) -> ChainTrace:
    """Iterate the self-exciting chain from y_0 = 0, h_0 = 0, reducing the
    trace statistics from each recorded block. Raw mode records
    non-finiteness instead of raising: the chain stops at the first step
    whose c, n or y is non-finite, and the steps after it are NaN."""
    params, W_out, b_out = chain_params(config)
    mode = GateMode(stabilized=config.mode == "stabilized")
    H, gates = config.horizon, params.gates()
    y_seq = np.full((H, config.p), np.nan)
    f_norm, c_norm, n_norm, ratio_norm = np.full((4, H), np.nan)
    with np.errstate(invalid="ignore", over="ignore"):
        for t0, y, c, n, h, overflow_step in _run_chain(
                params, W_out, b_out, mode, _chain_noise(config, H),
                SLSTMState.zeros(1, config.q)):
            s = slice(t0, t0 + len(y) - 1)
            y_seq[s] = y[1:]
            f_norm[s] = np.abs(_gate_f(gates, y[:-1], h[:-1])).max(axis=1)
            c_norm[s] = np.abs(c[1:]).max(axis=1)
            n_norm[s] = np.abs(n[1:]).max(axis=1)
            ratio_norm[s] = np.abs(c[1:] / n[1:]).max(axis=1)
    finite = np.arange(H) < (H if overflow_step is None else overflow_step)
    return ChainTrace(y_seq, f_norm, c_norm, n_norm, ratio_norm, finite,
                      overflow_step)


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelations at lags 0..max_lag of a 1-d series."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    xc = x - x.mean()
    var = float(np.dot(xc, xc))
    if var == 0.0:
        raise DataError("autocorrelation of a constant series")
    return np.array([np.dot(xc[:n - k], xc[k:]) / var for k in range(max_lag + 1)])


def _geometric_fit(k: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of log v = a k + b over positive v; returns
    (exp(a), R^2). With fewer than two points the decay is taken as
    immediate: (0.0, 1.0)."""
    if len(k) < 2:
        return 0.0, 1.0
    logv = np.log(v)
    slope, intercept = np.polyfit(k, logv, 1)
    fit = slope * k + intercept
    ss_res = float(np.sum((logv - fit) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(np.exp(slope)), r2


@dataclass
class MemoryReport:
    acf: np.ndarray                # (max_lag + 1, p), lag 0 first
    rho_hat: float                 # fitted decay rate of |acf(k)| ~ rho^k
    r_squared: float
    lags_used: int


def memory_report(trace: ChainTrace, max_lag: int = 20) -> MemoryReport:
    """Autocorrelation decay of the chain output.

    rho_hat comes from a least-squares fit of log|acf(k)| against k over
    the lags with |acf| > 0.01 (averaged across output dims first). A
    max_lag below 2 is a DataError.
    """
    if max_lag < 2:
        raise DataError(f"max_lag {max_lag}: the decay fit needs two lags")
    n_finite = int(trace.finite.sum())
    if n_finite < 10 * max_lag:
        raise DataError(f"horizon {n_finite} too short for max_lag {max_lag}")
    y = trace.y_seq[:n_finite]
    acf = np.stack([autocorrelation(y[:, j], max_lag)
                    for j in range(y.shape[1])], axis=1)
    mean_abs = np.abs(acf).mean(axis=1)
    lags = np.arange(1, max_lag + 1)
    keep = mean_abs[1:] > 0.01
    rho, r2 = _geometric_fit(lags[keep], mean_abs[1:][keep])
    return MemoryReport(acf=acf, rho_hat=rho, r_squared=r2,
                        lags_used=int(keep.sum()))


def check_contraction(params: SLSTMParams, threshold: float = 0.9,
                      n_grid: int = 0, seed: int = 0) -> tuple[float, bool]:
    """Analytic sup of the forget gate over u in [-1,1]^p, v in [-1,1]^q.

    exp is monotone, so each coordinate's max over the box is
    b_f[i] + sum|W_f[i]| + sum|R_f[i]|; the sup-norm bound is exact at a
    box corner. An optional random grid cross-checks the bound from below.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    g = params.gates()
    row_max = g["b_f"] + np.abs(g["W_f"]).sum(axis=1) \
        + np.abs(g["R_f"]).sum(axis=1)
    sup = float(np.exp(row_max.max()))
    if n_grid:
        rng = Rng(seed)
        u = rng.uniform((n_grid, params.d_input)) * 2.0 - 1.0
        v = rng.uniform((n_grid, params.d_hidden)) * 2.0 - 1.0
        sample = _gate_f(g, u, v)
        if not sample.max() <= sup + 1e-9:
            raise RuntimeError(f"check_contraction: grid sample "
                               f"{sample.max()} exceeds the analytic sup {sup}")
    # tolerance absorbs rounding when b_f was solved for the threshold itself
    return sup, sup <= threshold * (1.0 + 1e-9)


@dataclass
class CouplingReport:
    gaps: np.ndarray               # sup-norm state gap per step
    decay_rate: float              # geometric fit over the decaying stretch
    step_below_tol: int | None     # first step with gap < tol


def two_trajectory_coupling(config: ChainConfig, horizon: int | None = None,
                            tol: float = 1e-6,
                            init_scale: float = 1.0) -> CouplingReport:
    """Run two chains, each its own B=1 run, on the same noise from
    different initial states; the gap at step t is the sup-norm of their
    difference in (y_t, h_t, c_t / n_t). Past a non-finite step the gaps
    are NaN: only an amplifying chain gets there, and the CLI couples
    contractive chains only. decay_rate fits the positive gaps through
    step_below_tol (all of them if the gap never gets below tol), so the
    round-off tail below tol does not move it. horizon (None: the
    config's) must be >= 2, ChainConfig's own bound."""
    horizon = config.horizon if horizon is None else horizon
    if horizon < 2:
        raise ValueError(f"coupling horizon must be >= 2, got {horizon}")
    params, W_out, b_out = chain_params(config)
    mode = GateMode(stabilized=config.mode == "stabilized")
    noise, q = _chain_noise(config, horizon), config.q
    start_b = SLSTMState.zeros(1, q)
    if init_scale != 0.0:
        rng = Rng(config.seed).spawn(4242)
        start_b = SLSTMState(h=rng.normal((1, q), 0.0, init_scale),
                             c=rng.normal((1, q), 0.0, init_scale), n=np.ones((1, q)))
    runs = [_run_chain(params, W_out, b_out, mode, noise, s)
            for s in (SLSTMState.zeros(1, q), start_b)]
    gaps = np.full(len(noise), np.nan)
    with np.errstate(invalid="ignore", over="ignore"):
        for (t0, y_a, c_a, n_a, h_a, _), (_, y_b, c_b, n_b, h_b, _) in zip(*runs):
            k = min(len(y_a), len(y_b))           # shorter if one overflowed
            diff = np.hstack((y_a[:k] - y_b[:k], h_a[:k] - h_b[:k],
                              (c_a / n_a)[:k] - (c_b / n_b)[:k]))
            gaps[t0:t0 + k - 1] = np.abs(diff[1:]).max(axis=1)
    step_below = int(np.argmax(gaps < tol)) if np.any(gaps < tol) else None
    decay = gaps if step_below is None else gaps[:step_below + 1]
    k = np.flatnonzero(decay > 0)
    rate, _ = _geometric_fit(k, decay[k])
    return CouplingReport(gaps, rate, step_below)


@dataclass
class RatioReport:
    max_ratio: float               # over the finite prefix
    max_c_norm: float
    overflow_step: int | None


def ratio_stability_report(trace: ChainTrace) -> RatioReport:
    """Boundedness of c/n while raw states blow up."""
    finite = trace.finite
    ratios = trace.ratio_norm[finite]
    cs = trace.c_norm[finite]
    return RatioReport(max_ratio=float(ratios.max()) if len(ratios) else np.nan,
                       max_c_norm=float(cs.max()) if len(cs) else np.nan,
                       overflow_step=trace.overflow_step)


# -- report emission -------------------------------------------------------

def write_probe_report(path, config: ChainConfig, sup_norm: float,
                       report: MemoryReport | None,
                       coupling: CouplingReport | None,
                       ratio: RatioReport | None) -> None:
    blob: dict = {
        "config": {k: getattr(config, k) for k in
                   ("p", "q", "noise_std", "horizon", "seed",
                    "forget_bias_offset", "mode", "weight_scale",
                    "target_gate_bound")},
        "gate_sup_norm": sup_norm,
    }
    if report is not None:
        blob["rho_hat"] = report.rho_hat
        blob["acf_fit_r_squared"] = report.r_squared
    if coupling is not None:
        blob["coupling_step_below_tol"] = coupling.step_below_tol
        blob["coupling_decay_rate"] = coupling.decay_rate
    if ratio is not None:
        blob["overflow_step"] = ratio.overflow_step
        blob["max_ratio"] = None if np.isnan(ratio.max_ratio) else ratio.max_ratio
        blob["max_c_norm"] = None if np.isnan(ratio.max_c_norm) else ratio.max_c_norm
    write_json(path, blob, indent=2)


def write_acf_csv(path, report: MemoryReport) -> None:
    write_csv(path, ["lag"] + [f"acf_dim{j}" for j in range(report.acf.shape[1])],
              ([k] + [repr(float(v)) for v in row]
               for k, row in enumerate(report.acf)))


def write_trace_csv(path, trace: ChainTrace) -> None:
    """One row per recorded step, through the overflow step if any."""
    steps = len(trace.finite) if trace.overflow_step is None \
        else trace.overflow_step + 1
    norms = (trace.f_norm, trace.c_norm, trace.n_norm, trace.ratio_norm)
    write_csv(path, ["step"] + [f"y_dim{j}" for j in range(trace.y_seq.shape[1])]
              + ["f_norm", "c_norm", "n_norm", "ratio_norm", "finite"],
              ([t] + [repr(float(v)) for v in trace.y_seq[t]]
               + [repr(float(a[t])) for a in norms] + [int(trace.finite[t])]
               for t in range(steps)))
