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
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .cells import GateMode, SLSTMParams, SLSTMState, slstm_step
from .tensorops import Rng


@dataclass
class ChainConfig:
    p: int = 1                     # output dimension
    q: int = 8                     # hidden dimension
    noise_std: float = 0.1
    horizon: int = 2000
    seed: int = 0
    forget_bias_offset: float = 0.0
    mode: str = "raw"              # "raw" or "stabilized"
    weight_scale: float = 0.3
    out_scale: float = 1.0
    target_gate_bound: float | None = None   # sets b_f analytically if given
    positive_feedback: bool = False          # nonnegative z/output weights
    param_seed: int | None = None            # weights seed; defaults to seed

    def __post_init__(self):
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.mode not in ("raw", "stabilized"):
            raise ValueError(f"bad mode {self.mode!r}")


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
    params = SLSTMParams.init(rng, d_input=p, d_hidden=q, n_heads=1)
    for g in "zifo":
        W = rng.normal((q, p), 0.0, s / np.sqrt(p))
        R = rng.normal((q, q), 0.0, s / np.sqrt(q))
        if config.positive_feedback and g == "z":
            W, R = np.abs(W), np.abs(R)
        setattr(params, f"W_{g}", W)
        setattr(params, f"R_{g}", R)
    if config.target_gate_bound is not None:
        rowsum = (np.abs(params.W_f).sum(axis=1)
                  + np.abs(params.R_f).sum(axis=1))
        params.b_f = np.log(config.target_gate_bound) - rowsum
    else:
        params.b_f = np.full(q, -1.0)
    params.b_f = params.b_f + config.forget_bias_offset
    W_out = rng.normal((p, q), 0.0, config.out_scale / np.sqrt(q))
    if config.positive_feedback:
        W_out = np.abs(W_out)
    b_out = np.zeros(p)
    return params, W_out, b_out


@dataclass
class ChainTrace:
    y_seq: np.ndarray              # (horizon, p)
    f_norm: np.ndarray             # per-step inf-norms
    c_norm: np.ndarray
    n_norm: np.ndarray
    ratio_norm: np.ndarray         # ||c/n||_inf
    finite: np.ndarray             # monotone flags; False stays False
    overflow_step: int | None      # first step with a non-finite state
    config: ChainConfig


def _gate_f(params: SLSTMParams, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.exp(x @ params.W_f.T + h @ params.R_f.T + params.b_f)


def simulate_chain(config: ChainConfig,
                   init: SLSTMState | None = None) -> ChainTrace:
    """Iterate the self-exciting chain from y_0 = 0, h_0 = 0.

    Raw mode records non-finiteness instead of raising; once a state goes
    non-finite the remaining steps are flagged non-finite and skipped.
    """
    params, W_out, b_out = chain_params(config)
    mode = GateMode(stabilized=config.mode == "stabilized")
    rng = Rng(config.seed).spawn(99)
    noise = rng.normal((config.horizon, config.p), 0.0, config.noise_std) \
        if config.noise_std > 0 else np.zeros((config.horizon, config.p))

    state = init if init is not None else SLSTMState.zeros(1, config.q)
    y = np.zeros((1, config.p))
    H = config.horizon
    trace = ChainTrace(y_seq=np.full((H, config.p), np.nan),
                       f_norm=np.full(H, np.nan), c_norm=np.full(H, np.nan),
                       n_norm=np.full(H, np.nan), ratio_norm=np.full(H, np.nan),
                       finite=np.zeros(H, dtype=bool), overflow_step=None,
                       config=config)
    for t in range(H):
        f = _gate_f(params, y, state.h)
        state, _ = slstm_step(params, y, state, mode)
        with np.errstate(invalid="ignore", over="ignore"):
            y = np.tanh(state.h @ W_out.T + b_out) + noise[t][None, :]
            ratio = state.c / state.n
        ok = bool(np.all(np.isfinite(state.c)) and np.all(np.isfinite(state.n))
                  and np.all(np.isfinite(y)))
        trace.f_norm[t] = np.max(np.abs(f))
        trace.c_norm[t] = np.max(np.abs(state.c))
        trace.n_norm[t] = np.max(np.abs(state.n))
        trace.ratio_norm[t] = np.max(np.abs(ratio))
        trace.y_seq[t] = y[0]
        trace.finite[t] = ok
        if not ok:
            trace.overflow_step = t
            break
    return trace


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelations at lags 0..max_lag of a 1-d series."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    xc = x - x.mean()
    var = float(np.dot(xc, xc))
    if var == 0.0:
        raise ValueError("autocorrelation of a constant series")
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
    contraction_bound: float       # sup over the trace of ||f_t||_inf
    lags_used: int


def memory_report(trace: ChainTrace, max_lag: int = 20) -> MemoryReport:
    """Autocorrelation decay of the chain output.

    rho_hat comes from a least-squares fit of log|acf(k)| against k over
    the lags with |acf| > 0.01 (averaged across output dims first).
    """
    n_finite = int(trace.finite.sum())
    if n_finite < 10 * max_lag:
        raise ValueError(f"horizon {n_finite} too short for max_lag {max_lag}")
    y = trace.y_seq[:n_finite]
    acf = np.stack([autocorrelation(y[:, j], max_lag)
                    for j in range(y.shape[1])], axis=1)
    mean_abs = np.abs(acf).mean(axis=1)
    lags = np.arange(1, max_lag + 1)
    keep = mean_abs[1:] > 0.01
    rho, r2 = _geometric_fit(lags[keep], mean_abs[1:][keep])
    return MemoryReport(acf=acf, rho_hat=rho, r_squared=r2,
                        contraction_bound=float(np.nanmax(trace.f_norm)),
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
    row_max = params.b_f + np.abs(params.W_f).sum(axis=1) \
        + np.abs(params.R_f).sum(axis=1)
    sup = float(np.exp(row_max.max()))
    if n_grid:
        rng = Rng(seed)
        u = rng.uniform((n_grid, params.d_input)) * 2.0 - 1.0
        v = rng.uniform((n_grid, params.d_hidden)) * 2.0 - 1.0
        sample = np.exp(u @ params.W_f.T + v @ params.R_f.T + params.b_f)
        if not sample.max() <= sup + 1e-9:
            raise RuntimeError(f"check_contraction: grid sample "
                               f"{sample.max()} exceeds the analytic sup {sup}")
    # tolerance absorbs rounding when b_f was solved for the threshold itself
    return sup, sup <= threshold * (1.0 + 1e-9)


@dataclass
class CouplingReport:
    gaps: np.ndarray               # sup-norm state gap per step
    decay_rate: float              # geometric fit over the decaying stretch
    r_squared: float
    step_below_tol: int | None     # first step with gap < tol


def two_trajectory_coupling(config: ChainConfig, horizon: int | None = None,
                            tol: float = 1e-6,
                            init_scale: float = 1.0) -> CouplingReport:
    """Run two chains on the same noise stream from different initial
    hidden states and track the joint state gap per step."""
    params, W_out, b_out = chain_params(config)
    mode = GateMode(stabilized=config.mode == "stabilized")
    H = horizon or config.horizon
    rng = Rng(config.seed).spawn(99)
    noise = rng.normal((H, config.p), 0.0, config.noise_std) \
        if config.noise_std > 0 else np.zeros((H, config.p))
    init_rng = Rng(config.seed).spawn(4242)

    state_a = SLSTMState.zeros(1, config.q)
    if init_scale == 0.0:
        state_b = SLSTMState.zeros(1, config.q)
    else:
        state_b = SLSTMState(h=init_rng.normal((1, config.q), 0.0, init_scale),
                             c=init_rng.normal((1, config.q), 0.0, init_scale),
                             n=np.ones((1, config.q)),
                             m=None)
    y_a = np.zeros((1, config.p))
    y_b = np.zeros((1, config.p))
    gaps = np.empty(H)
    step_below = None
    for t in range(H):
        state_a, _ = slstm_step(params, y_a, state_a, mode)
        state_b, _ = slstm_step(params, y_b, state_b, mode)
        y_a = np.tanh(state_a.h @ W_out.T + b_out) + noise[t][None, :]
        y_b = np.tanh(state_b.h @ W_out.T + b_out) + noise[t][None, :]
        gap = max(np.max(np.abs(y_a - y_b)), np.max(np.abs(state_a.h - state_b.h)),
                  np.max(np.abs(state_a.c / state_a.n - state_b.c / state_b.n)))
        gaps[t] = gap
        if step_below is None and gap < tol:
            step_below = t
    positive = gaps > 0
    rate, r2 = _geometric_fit(np.arange(H)[positive], gaps[positive])
    return CouplingReport(gaps=gaps, decay_rate=rate, r_squared=r2,
                          step_below_tol=step_below)


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
    with open(path, "w") as fh:
        json.dump(blob, fh, sort_keys=True, indent=2)


def write_acf_csv(path, report: MemoryReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lag"] + [f"acf_dim{j}" for j in range(report.acf.shape[1])])
        for k in range(report.acf.shape[0]):
            writer.writerow([k] + [repr(float(v)) for v in report.acf[k]])
