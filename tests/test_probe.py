"""Tests for the memory-property probe: chain simulation, autocorrelation
decay, the analytic contraction bound, coupling, and the amplification
regime."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from pslstm.cells import GateMode, SLSTMParams, SLSTMState, slstm_step
from pslstm.probe import (ChainConfig, ChainTrace, _run_chain, autocorrelation,
                          chain_params, check_contraction,
                          memory_report, ratio_stability_report,
                          simulate_chain, two_trajectory_coupling,
                          write_acf_csv, write_probe_report, write_trace_csv)
from pslstm.tensorops import Rng

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def zero_weight_params(q=4, b_f=-1.0, b_out=0.5):
    cfg = ChainConfig(q=q, weight_scale=0.0, noise_std=0.0, horizon=10)
    params, W_out, _ = chain_params(cfg)
    params = with_forget_bias(params, np.full(q, b_f))
    return params, np.zeros_like(W_out), np.full(1, b_out)


def with_forget_bias(params, b_f):
    return SLSTMParams.from_gates({**params.gates(), "b_f": b_f},
                                  params.n_heads)


def trace_from_series(y, config=None):
    """Wrap a plain 1-d series as a finite ChainTrace for memory_report."""
    y = np.asarray(y, dtype=np.float64)[:, None]
    H = len(y)
    return ChainTrace(y_seq=y, f_norm=np.full(H, 0.5), c_norm=np.zeros(H),
                      n_norm=np.ones(H), ratio_norm=np.zeros(H),
                      finite=np.ones(H, dtype=bool), overflow_step=None,
                      config=config or ChainConfig(horizon=H))


# -- config and parameter construction --------------------------------------

def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(horizon=1)
    with pytest.raises(ValueError):
        ChainConfig(noise_std=-0.1)
    with pytest.raises(ValueError):
        ChainConfig(mode="fast")
    with pytest.raises(ValueError):
        ChainConfig(q=0)
    with pytest.raises(TypeError):
        ChainConfig(q="8")
    with pytest.raises(TypeError):
        ChainConfig(horizon=2.5)
    with pytest.raises(ValueError):
        ChainConfig(weight_scale=-1.0)
    with pytest.raises(ValueError):
        ChainConfig(out_scale=-1e-9)
    ChainConfig(weight_scale=0.0, out_scale=0.0)
    with pytest.raises(TypeError):
        ChainConfig(seed=True)


def test_chain_params_deterministic():
    cfg = ChainConfig(seed=3)
    a, Wa, _ = chain_params(cfg)
    b, Wb, _ = chain_params(cfg)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.R, b.R)
    assert np.array_equal(Wa, Wb)


def test_chain_params_target_gate_bound_is_exact():
    cfg = ChainConfig(seed=1, target_gate_bound=0.9)
    params, _, _ = chain_params(cfg)
    sup, ok = check_contraction(params, threshold=0.9)
    assert abs(sup - 0.9) < 1e-12
    assert ok


def test_chain_params_positive_feedback_nonnegative():
    cfg = ChainConfig(seed=2, positive_feedback=True)
    params, W_out, _ = chain_params(cfg)
    gates = params.gates()
    assert np.all(gates["W_z"] >= 0.0)
    assert np.all(gates["R_z"] >= 0.0)
    assert np.all(W_out >= 0.0)


# -- simulate_chain ---------------------------------------------------------

def test_simulate_constant_fixed_point():
    # zero weights and no noise: y = tanh(0) = 0 forever, f = e^-1 each step
    cfg = ChainConfig(q=4, weight_scale=0.0, out_scale=0.0, noise_std=0.0,
                      horizon=20, seed=0)
    trace = simulate_chain(cfg)
    assert np.all(trace.y_seq == 0.0)
    assert np.allclose(trace.f_norm, np.exp(-1.0))
    assert trace.overflow_step is None


def test_simulate_same_seed_identical():
    cfg = ChainConfig(horizon=200, seed=5)
    a = simulate_chain(cfg)
    b = simulate_chain(cfg)
    assert np.array_equal(a.y_seq, b.y_seq)
    assert np.array_equal(a.c_norm, b.c_norm)


def test_simulate_amplification_growth_and_overflow():
    # the default forget bias is -1, so offset +3 drives the forget
    # pre-activations to about +2: the cell state roughly squares its
    # magnitude scale every few steps and raw arithmetic must overflow
    cfg = ChainConfig(q=4, horizon=500, seed=0, forget_bias_offset=3.0,
                      mode="raw")
    trace = simulate_chain(cfg)
    assert trace.overflow_step is not None
    assert trace.overflow_step < 500
    fin = np.where(trace.finite)[0]
    burn = fin[20:]
    assert np.all(np.diff(trace.c_norm[burn]) > 0.0)


def test_simulate_finiteness_flags_monotone():
    cfg = ChainConfig(q=4, horizon=500, seed=0, forget_bias_offset=3.0,
                      mode="raw")
    trace = simulate_chain(cfg)
    flags = trace.finite.astype(int)
    assert np.all(np.diff(flags) <= 0)  # True prefix, then False


def test_stabilized_mode_stays_finite_on_same_seed():
    cfg = ChainConfig(q=4, horizon=500, seed=0, forget_bias_offset=3.0,
                      mode="stabilized")
    trace = simulate_chain(cfg)
    assert trace.overflow_step is None
    assert np.all(np.isfinite(trace.y_seq))


# -- the blocked chain record against the per-step loops --------------------

def _reference_noise(config, horizon):
    rng = Rng(config.seed).spawn(99)
    return rng.normal((horizon, config.p), 0.0, config.noise_std) \
        if config.noise_std > 0 else np.zeros((horizon, config.p))


def _reference_simulate_chain(config):
    """simulate_chain as a per-step loop: a second forget-gate GEMM pair and
    seven reductions every step."""
    params, W_out, b_out = chain_params(config)
    gates = params.gates()
    mode = GateMode(stabilized=config.mode == "stabilized")
    noise = _reference_noise(config, config.horizon)
    state = SLSTMState.zeros(1, config.q)
    y = np.zeros((1, config.p))
    H = config.horizon
    trace = ChainTrace(y_seq=np.full((H, config.p), np.nan),
                       f_norm=np.full(H, np.nan), c_norm=np.full(H, np.nan),
                       n_norm=np.full(H, np.nan), ratio_norm=np.full(H, np.nan),
                       finite=np.zeros(H, dtype=bool), overflow_step=None,
                       config=config)
    for t in range(H):
        with np.errstate(over="ignore"):
            f = np.exp(y @ gates["W_f"].T + state.h @ gates["R_f"].T
                       + gates["b_f"])
        state = slstm_step(params, y, state, mode)
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


def _reference_coupling_gaps(config, horizon, tol=1e-6, init_scale=1.0):
    """two_trajectory_coupling's gaps and first step below tol, stepping
    both trajectories in one per-step loop."""
    params, W_out, b_out = chain_params(config)
    mode = GateMode(stabilized=config.mode == "stabilized")
    noise = _reference_noise(config, horizon)
    init_rng = Rng(config.seed).spawn(4242)
    state_a = SLSTMState.zeros(1, config.q)
    if init_scale == 0.0:
        state_b = SLSTMState.zeros(1, config.q)
    else:
        state_b = SLSTMState(h=init_rng.normal((1, config.q), 0.0, init_scale),
                             c=init_rng.normal((1, config.q), 0.0, init_scale),
                             n=np.ones((1, config.q)), m=None)
    y_a = np.zeros((1, config.p))
    y_b = np.zeros((1, config.p))
    gaps = np.empty(horizon)
    step_below = None
    with np.errstate(invalid="ignore", over="ignore"):
        for t in range(horizon):
            state_a = slstm_step(params, y_a, state_a, mode)
            state_b = slstm_step(params, y_b, state_b, mode)
            y_a = np.tanh(state_a.h @ W_out.T + b_out) + noise[t][None, :]
            y_b = np.tanh(state_b.h @ W_out.T + b_out) + noise[t][None, :]
            gap = max(np.max(np.abs(y_a - y_b)),
                      np.max(np.abs(state_a.h - state_b.h)),
                      np.max(np.abs(state_a.c / state_a.n
                                    - state_b.c / state_b.n)))
            gaps[t] = gap
            if step_below is None and gap < tol:
                step_below = t
    return gaps, step_below


def _shipped_chain(name, **changes):
    payload = json.loads((CONFIGS / f"probe_{name}.json").read_text())["probe"]
    return dataclasses.replace(ChainConfig(**payload), **changes)


@pytest.mark.parametrize("config", [
    _shipped_chain("contraction"),                        # q=8, 20,000 steps
    _shipped_chain("amplification"),                      # overflows at 355
    _shipped_chain("amplification", mode="stabilized"),
    _shipped_chain("amplification", forget_bias_offset=2.0,
                   horizon=3000),                         # a later block
], ids=["contraction", "raw_overflow", "stabilized", "raw_late_overflow"])
def test_simulate_chain_matches_per_step_loop(config):
    got = simulate_chain(config)
    want = _reference_simulate_chain(config)
    for name in ("y_seq", "c_norm", "n_norm", "ratio_norm", "finite"):
        assert np.array_equal(getattr(got, name), getattr(want, name),
                              equal_nan=name != "finite"), name
    assert got.overflow_step == want.overflow_step
    # one GEMM over a block of rows rounds apart from one product per row
    np.testing.assert_allclose(got.f_norm, want.f_norm, rtol=1e-14)
    if config.mode == "raw" and config.forget_bias_offset > 0:
        assert got.overflow_step is not None


@pytest.mark.parametrize("init_scale", [1.0, 0.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_coupling_matches_per_step_loop(seed, init_scale):
    config = _shipped_chain("contraction", seed=seed)
    got = two_trajectory_coupling(config, horizon=1200, init_scale=init_scale)
    gaps, step_below = _reference_coupling_gaps(config, 1200,
                                                init_scale=init_scale)
    assert np.array_equal(got.gaps, gaps)
    assert got.step_below_tol == step_below


def test_coupling_gaps_are_nan_past_an_overflow():
    config = _shipped_chain("amplification")
    rep = two_trajectory_coupling(config, horizon=500)
    overflow = simulate_chain(config).overflow_step
    gaps, _ = _reference_coupling_gaps(config, 500)
    first_nan = int(np.argmax(np.isnan(rep.gaps)))
    assert first_nan <= overflow + 1
    assert np.array_equal(rep.gaps[:first_nan - 1], gaps[:first_nan - 1])
    assert np.all(np.isnan(rep.gaps[first_nan:]))


def _reference_run_chain(params, W_out, b_out, mode, noise, state):
    """_run_chain as a per-step loop: a new state from each slstm_step, one
    concatenate into the record and one finiteness test per step."""
    (H, p), q = noise.shape, params.d_hidden
    block = 512
    rows = np.empty((block + 1, p + 3 * q))
    y, t0 = np.zeros((1, p)), 0
    np.concatenate((y[0], state.c[0], state.n[0], state.h[0]), out=rows[0])
    for t in range(H):
        state = slstm_step(params, y, state, mode)
        y = np.tanh(state.h @ W_out.T + b_out) + noise[t]
        k = t - t0 + 1
        np.concatenate((y[0], state.c[0], state.n[0], state.h[0]), out=rows[k])
        stop = not np.isfinite(rows[k, :p + 2 * q]).all()
        if stop or k == block or t == H - 1:
            yield (t0, *np.split(rows[:k + 1], [p, p + q, p + 2 * q], axis=1),
                   t if stop else None)
            if stop:
                return
            rows[0], t0 = rows[k], t + 1


def _chain_blocks(run, config, start=None):
    """Every block a chain generator yields: (t0, rows, the bytes of y, c, n
    and h, overflow_step), read before the next block overwrites them."""
    params, W_out, b_out = chain_params(config)
    mode = GateMode(stabilized=config.mode == "stabilized")
    noise = _reference_noise(config, config.horizon)
    state = start or SLSTMState.zeros(1, config.q)
    with np.errstate(invalid="ignore", over="ignore"):
        return [(t0, len(arrays[0]), *[a.tobytes() for a in arrays],
                 overflow_step)
                for t0, *arrays, overflow_step in run(params, W_out, b_out,
                                                      mode, noise, state)]


#: amplification chains (q=4) whose raw overflow lands on a chosen row
OVERFLOWS = {"mid_block": (3.0, 355), "last_row": (2.39, 511),
             "first_row": (2.386, 512), "first_row_last_step": (1.693, 1024)}


@pytest.mark.parametrize("horizon", [511, 512, 513, 1025])
@pytest.mark.parametrize("chain", [
    "contraction", "stabilized", "coupled_start", *OVERFLOWS])
def test_run_chain_matches_the_per_step_record(chain, horizon):
    start = None
    if chain in OVERFLOWS:
        offset, overflow_step = OVERFLOWS[chain]
        config = _shipped_chain("amplification", forget_bias_offset=offset,
                                horizon=horizon)
    elif chain == "stabilized":
        config = _shipped_chain("amplification", mode="stabilized",
                                horizon=horizon)
    else:
        config = _shipped_chain("contraction", horizon=horizon)
        if chain == "coupled_start":
            rng = Rng(5)
            start = SLSTMState(h=rng.normal((1, 8), 0.0, 1.0),
                               c=rng.normal((1, 8), 0.0, 1.0),
                               n=np.ones((1, 8)))
    got = _chain_blocks(_run_chain, config, start)
    assert got == _chain_blocks(_reference_run_chain, config, start)
    # full blocks of 512 steps, then the rest up to the last step made
    (*full, (t0, rows, *_, overflow)) = got
    assert [(b[0], b[1]) for b in full] == [(512 * i, 513)
                                           for i in range(len(full))]
    assert t0 == 512 * len(full)
    if chain in OVERFLOWS and overflow_step < horizon:
        assert overflow == overflow_step == t0 + rows - 2
    else:
        assert overflow is None and t0 + rows - 1 == horizon


@pytest.mark.parametrize("mode, offset", [
    ("raw", 0.0), ("stabilized", 0.0), ("raw", 3.0), ("stabilized", 3.0)],
    ids=["raw", "stabilized", "raw_overflow", "stabilized_amplifying"])
def test_run_chain_with_a_wide_output_matches_the_per_step_record(mode,
                                                                 offset):
    # p=2, q=3: the feed's (1, 2) x (2, 12) input GEMM and a y row of two
    config = ChainConfig(p=2, q=3, horizon=1100, seed=3, mode=mode,
                         forget_bias_offset=offset)
    got = _chain_blocks(_run_chain, config)
    assert got == _chain_blocks(_reference_run_chain, config)
    assert len(got[0][2]) == got[0][1] * 2 * 8     # the bytes of y
    overflows = mode == "raw" and offset > 0
    assert (got[-1][-1] is not None) == overflows


def test_stabilized_chain_raises_after_the_last_finite_block():
    # output noise of 1e308 from step 600 drives the stabilizer m to +inf
    # and h to NaN a few steps later, in the second block: the first block
    # is yielded with the reference's bytes, then FloatingPointError
    config = _shipped_chain("amplification", mode="stabilized", horizon=1100)
    params, W_out, b_out = chain_params(config)
    noise = _reference_noise(config, config.horizon)
    noise[600:] = 1e308
    records = []
    for run in (_run_chain, _reference_run_chain):
        blocks = run(params, W_out, b_out, GateMode(stabilized=True), noise,
                     SLSTMState.zeros(1, config.q))
        with np.errstate(invalid="ignore", over="ignore"):
            t0, *arrays, overflow_step = next(blocks)
            records.append((t0, [a.tobytes() for a in arrays], overflow_step))
            with pytest.raises(FloatingPointError):
                next(blocks)
    assert records[0] == records[1]
    assert records[0][0] == 0 and records[0][2] is None


@pytest.mark.parametrize("run", [_run_chain, _reference_run_chain],
                         ids=["run_chain", "reference"])
def test_stabilized_chain_raises_on_a_non_finite_h(run):
    config = _shipped_chain("amplification", mode="stabilized")
    start = SLSTMState.zeros(1, config.q)
    start.c[0, 1] = np.inf
    with pytest.raises(FloatingPointError):
        _chain_blocks(run, config, start)


# -- autocorrelation / memory_report ----------------------------------------

def test_autocorrelation_lag0_is_one():
    x = Rng(1).normal((500,), 0.0, 1.0)
    acf = autocorrelation(x, 5)
    assert acf[0] == pytest.approx(1.0)


def test_autocorrelation_constant_rejected():
    with pytest.raises(ValueError):
        autocorrelation(np.ones(100), 5)


def test_memory_report_white_noise_band():
    # i.i.d. noise: |acf(k)| below the 3/sqrt(n) band for k >= 1
    n = 20_000
    y = Rng(2).normal((n,), 0.0, 1.0)
    rep = memory_report(trace_from_series(y), max_lag=20)
    assert np.all(np.abs(rep.acf[1:]) < 3.0 / np.sqrt(n))
    # almost every lag falls under the 0.01 fit cutoff
    assert rep.lags_used <= 5


def test_memory_report_ar1_oracle():
    # AR(1) with phi = 0.8 has acf(k) = 0.8^k exactly
    from pslstm.datasets import make_synthetic
    y = make_synthetic("ar1", {"length": 100_000, "phi": 0.8}, seed=7).values[:, 0]
    rep = memory_report(trace_from_series(y), max_lag=20)
    assert abs(rep.rho_hat - 0.8) < 0.05
    assert rep.r_squared > 0.95


def test_memory_report_short_horizon_rejected():
    y = Rng(3).normal((50,), 0.0, 1.0)
    with pytest.raises(ValueError):
        memory_report(trace_from_series(y), max_lag=20)


def test_memory_report_acf_magnitude_bound():
    y = Rng(4).normal((5000,), 0.0, 1.0).cumsum()  # strongly correlated
    rep = memory_report(trace_from_series(y), max_lag=20)
    assert np.all(np.abs(rep.acf) <= 1.0 + 1e-6)


# -- contraction check ------------------------------------------------------

def test_contraction_constant_gate_oracle():
    params, _, _ = zero_weight_params(b_f=-1.0)
    sup, ok = check_contraction(params, threshold=0.9)
    assert sup == pytest.approx(np.exp(-1.0))
    assert ok


def test_contraction_zero_bias_never_satisfied():
    cfg = ChainConfig(seed=0)
    params = with_forget_bias(chain_params(cfg)[0], np.zeros(cfg.q))
    sup, ok = check_contraction(params, threshold=0.9)
    assert sup >= 1.0
    assert not ok


def test_contraction_grid_cross_check_raises(monkeypatch):
    # grid points outside the unit box can exceed the analytic sup; the
    # cross-check must raise, also under python -O
    params, _, _ = chain_params(ChainConfig(seed=2))
    monkeypatch.setattr(Rng, "uniform", lambda self, shape: np.full(shape, 3.0))
    with pytest.raises(RuntimeError, match="exceeds the analytic sup"):
        check_contraction(params, threshold=0.9, n_grid=4)


def test_contraction_corner_enumeration_oracle():
    # brute-force the 2^(p+q) box corners; the analytic bound must be
    # attained at one of them
    cfg = ChainConfig(p=2, q=3, seed=11)
    params, _, _ = chain_params(cfg)
    sup, _ = check_contraction(params, threshold=0.5, n_grid=128, seed=1)
    gates = params.gates()
    best = -np.inf
    for cu in range(4):
        for cv in range(8):
            u = np.array([1.0 if cu >> j & 1 else -1.0 for j in range(2)])
            v = np.array([1.0 if cv >> j & 1 else -1.0 for j in range(3)])
            pre = gates["W_f"] @ u + gates["R_f"] @ v + gates["b_f"]
            best = max(best, np.exp(pre).max())
    assert abs(sup - best) < 1e-9


def test_contraction_threshold_bounds():
    params, _, _ = zero_weight_params()
    with pytest.raises(ValueError):
        check_contraction(params, threshold=1.5)


# -- coupling ---------------------------------------------------------------

def test_coupling_identical_initial_states_zero_gap():
    cfg = ChainConfig(q=4, seed=0, weight_scale=0.1, noise_std=0.05,
                      horizon=100, target_gate_bound=0.9)
    rep = two_trajectory_coupling(cfg, horizon=100, init_scale=0.0)
    # state_b starts from zero-scale noise = the same zero state
    assert np.all(rep.gaps == 0.0)


def test_coupling_contracts_under_gate_bound():
    cfg = ChainConfig(q=8, seed=0, param_seed=0, noise_std=0.01,
                      weight_scale=0.3, out_scale=1.5, horizon=500,
                      target_gate_bound=0.9, positive_feedback=True)
    rep = two_trajectory_coupling(cfg, horizon=300)
    assert rep.step_below_tol is not None
    assert rep.step_below_tol <= 200
    # monotone non-increasing after a short burn-in (up to exact zeros)
    g = rep.gaps[10:rep.step_below_tol]
    assert np.all(np.diff(np.log(np.maximum(g, 1e-300))) < 1.0)



def test_coupling_decay_fit_stops_at_the_tolerance():
    # the gaps below tol fall into round-off (about 1e-17 by step 300); the
    # decay rate is the log-linear fit over steps 0..step_below_tol only
    rep = two_trajectory_coupling(_shipped_chain("contraction"), horizon=500)
    k = np.arange(rep.step_below_tol + 1)
    slope = np.polyfit(k, np.log(rep.gaps[k]), 1)[0]
    assert rep.decay_rate == pytest.approx(np.exp(slope), rel=1e-12)
    assert np.all(rep.gaps[k] > 0)


def test_coupling_horizon_defaults_to_the_config_only_for_none():
    config = ChainConfig(q=4, horizon=40, target_gate_bound=0.9)
    assert len(two_trajectory_coupling(config).gaps) == 40
    assert len(two_trajectory_coupling(config, horizon=2).gaps) == 2


@pytest.mark.parametrize("horizon", [0, 1, -3])
def test_coupling_rejects_a_horizon_below_two(horizon):
    # 0 used to run config.horizon steps, 1 to fit a decay rate of 0.0 from
    # one gap, and a negative horizon to die on numpy's negative dimensions
    config = ChainConfig(q=4, horizon=40, target_gate_bound=0.9)
    with pytest.raises(ValueError, match="horizon must be >= 2"):
        two_trajectory_coupling(config, horizon=horizon)

# -- ratio stability --------------------------------------------------------

def test_ratio_bounded_in_contraction_regime():
    cfg = ChainConfig(q=8, seed=0, noise_std=0.1, horizon=1000,
                      target_gate_bound=0.9)
    trace = simulate_chain(cfg)
    rep = ratio_stability_report(trace)
    # |c/n| <= max|z| <= 1, plus slack for the n floor early on
    assert rep.max_ratio <= 2.0
    assert rep.overflow_step is None


def test_ratio_bounded_while_states_blow_up():
    cfg = ChainConfig(q=4, seed=0, forget_bias_offset=3.0, horizon=500,
                      mode="raw")
    trace = simulate_chain(cfg)
    rep = ratio_stability_report(trace)
    assert rep.max_c_norm > 1e10
    assert rep.max_ratio < 10.0


# -- report emission --------------------------------------------------------

def test_probe_report_json(tmp_path):
    cfg = ChainConfig(q=8, seed=0, noise_std=0.1, horizon=2000,
                      target_gate_bound=0.9)
    trace = simulate_chain(cfg)
    rep = memory_report(trace, max_lag=20)
    coup = two_trajectory_coupling(cfg, horizon=300)
    ratio = ratio_stability_report(trace)
    params, _, _ = chain_params(cfg)
    sup, _ = check_contraction(params)
    path = tmp_path / "probe.json"
    write_probe_report(path, cfg, sup, rep, coup, ratio)
    blob = json.loads(path.read_text())
    assert blob["gate_sup_norm"] == pytest.approx(sup)
    assert "rho_hat" in blob and "coupling_step_below_tol" in blob
    assert blob["config"]["q"] == 8


def test_acf_csv(tmp_path):
    y = Rng(5).normal((2000,), 0.0, 1.0)
    rep = memory_report(trace_from_series(y), max_lag=10)
    path = tmp_path / "acf.csv"
    write_acf_csv(path, rep)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "lag,acf_dim0"
    assert len(lines) == 12
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["contraction", "amplification"])
def test_trace_csv_rows_equal_the_trace(tmp_path, name):
    trace = simulate_chain(_shipped_chain(name, horizon=600))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["step", "y_dim0", "f_norm", "c_norm", "n_norm",
                      "ratio_norm", "finite"]
    # every recorded step, through the overflow step of the raw chain
    steps = 600 if trace.overflow_step is None else trace.overflow_step + 1
    assert (trace.overflow_step is None) == (name == "contraction")
    table = np.array(rows, dtype=float)
    assert table.shape == (steps, 7)
    assert np.array_equal(table[:, 0], np.arange(steps))
    for col, arr in zip(table[:, 1:6].T,
                        (trace.y_seq[:, 0], trace.f_norm, trace.c_norm,
                         trace.n_norm, trace.ratio_norm)):
        assert np.array_equal(col, arr[:steps], equal_nan=True)
    assert np.array_equal(table[:, 6], trace.finite[:steps])
