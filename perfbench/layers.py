"""What the traced run wraps, and the per-layer metrics derived from it.

Layers are the modules of src/pslstm. Every per-layer metric is printed for
every workload; a layer the workload never calls reads 0. Which end-to-end
metric and workload each one should move is tabulated in README.md.
"""

from __future__ import annotations

from pslstm import cells, cli, datasets, model, probe, training

from workloads import WeatherStep

# spans whose time counts as "training" for the share metrics
TRAIN_SPANS = ("training.train", "bench.train_step")


def _gemm_flops(batch: int, steps: int, d_in: int, d_hidden: int) -> float:
    """Dense GEMM flops of one sLSTM forward over a sequence: four gates'
    input and recurrent products, masked-off R entries included."""
    return 2.0 * 4 * batch * steps * (d_in + d_hidden) * d_hidden


def _seq_shape(arr):
    return (1,) + arr.shape[:1] if arr.ndim == 2 else arr.shape[:2]


def _forward_flops(args, kwargs) -> float:
    params = args[0]
    x_seq = args[1] if len(args) > 1 else kwargs["x_seq"]
    B, S = _seq_shape(x_seq)
    return _gemm_flops(B, S, params.d_input, params.d_hidden)


def _backward_flops(args, kwargs) -> float:
    # gate-weight gradients plus the carried input and hidden gradients:
    # twice the forward GEMMs
    params = args[0]
    grad = args[2] if len(args) > 2 else kwargs["grad_h_seq"]
    B, S = _seq_shape(grad)
    return 2.0 * _gemm_flops(B, S, params.d_input, params.d_hidden)


def _forward_name(args, kwargs) -> str:
    training_flag = kwargs.get("training", args[2] if len(args) > 2 else False)
    return "model.forward_train" if training_flag else "model.forward_eval"


def trace_targets():
    """(owner, attribute, span name, namer, counter) for each wrapped call."""
    plain = [
        (cells, "sigmoid", "tensorops.sigmoid"),
        (cells, "slstm_step", "cells.slstm_step"),
        (model, "patchify", "model.patchify"),
        (model.Forecaster, "backward", "model.backward"),
        (training, "mse_loss", "training.mse_loss"),
        (training, "clip_gradients", "training.clip_gradients"),
        (training, "adam_step", "training.adam_step"),
        (training, "train", "training.train"),
        (training, "evaluate", "training.evaluate"),
        (datasets.WindowedDataset, "batch", "datasets.batch"),
        (datasets, "make_synthetic", "datasets.make_synthetic"),
        (datasets, "split_and_standardize", "datasets.split_and_standardize"),
        (cli, "load_run_config", "cli.load_run_config"),
        (cli, "make_model_config", "cli.make_model_config"),
        (cli, "make_train_config", "cli.make_train_config"),
        (cli, "load_dataset", "cli.load_dataset"),
        (probe, "simulate_chain", "probe.simulate_chain"),
        (probe, "two_trajectory_coupling", "probe.two_trajectory_coupling"),
        (probe, "memory_report", "probe.memory_report"),
        (probe, "check_contraction", "probe.check_contraction"),
        (WeatherStep, "step", "bench.train_step"),
    ]
    return [(owner, attr, name, None, None) for owner, attr, name in plain] + [
        (cells, "slstm_forward", "cells.slstm_forward", None, _forward_flops),
        (cells, "slstm_backward", "cells.slstm_backward", None,
         _backward_flops),
        (model.Forecaster, "forward", None, _forward_name, None),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s, n_units: int, n_setups: int, overhead_pct: float) -> dict:
    """Per-layer metrics from a SpanSummary of n_units traced units and
    n_setups traced set-ups. Times per call are medians of inclusive span
    durations; *_self_* are mean self times per call."""
    ms, us = 1e3, 1e6
    train_time = s.total(*TRAIN_SPANS)
    fits = s.calls("training.train")
    fwd_flops = s.counts.get("cells.slstm_forward", 0.0)
    bwd_flops = s.counts.get("cells.slstm_backward", 0.0)
    forward_names = ("model.forward_train", "model.forward_eval")
    forward_self = sum(s.self_total.get(n, 0.0) for n in forward_names)
    chain_steps = s.calls_under("cells.slstm_step", ("probe.simulate_chain",))
    return {
        "tensorops.sigmoid_us": us * s.median("tensorops.sigmoid"),
        "tensorops.sigmoid_calls": s.calls("tensorops.sigmoid") / n_units,
        "cells.slstm_step_us": us * s.median("cells.slstm_step"),
        "cells.slstm_step_calls": s.calls("cells.slstm_step") / n_units,
        "cells.slstm_forward_ms": ms * s.median("cells.slstm_forward"),
        "cells.slstm_backward_ms": ms * s.median("cells.slstm_backward"),
        "cells.fwd_gflop": _ratio(fwd_flops, s.calls("cells.slstm_forward"))
        / 1e9,
        "cells.bwd_gflop": _ratio(bwd_flops, s.calls("cells.slstm_backward"))
        / 1e9,
        "cells.fwd_gflops_per_s": _ratio(fwd_flops,
                                         s.total("cells.slstm_forward")) / 1e9,
        "cells.bwd_gflops_per_s": _ratio(bwd_flops,
                                         s.total("cells.slstm_backward")) / 1e9,
        "model.forward_train_ms": ms * s.median("model.forward_train"),
        "model.forward_eval_ms": ms * s.median("model.forward_eval"),
        "model.backward_ms": ms * s.median("model.backward"),
        "model.patchify_ms": ms * s.median("model.patchify"),
        "model.forward_self_ms": ms * _ratio(
            forward_self, sum(s.calls(n) for n in forward_names)),
        "model.backward_self_ms": ms * s.self_per_call("model.backward"),
        "training.adam_ms": ms * s.median("training.adam_step"),
        "training.clip_ms": ms * s.median("training.clip_gradients"),
        "training.loss_ms": ms * s.median("training.mse_loss"),
        "training.opt_share": _ratio(
            s.total("training.adam_step", "training.clip_gradients"),
            train_time),
        "training.forward_calls_step": _ratio(
            s.calls_under("model.forward_train", ("training.train",)), fits),
        "training.forward_calls_rescore": _ratio(
            s.calls_under("model.forward_eval", ("training.train",)), fits),
        "training.fit_self_s": s.self_per_call("training.train"),
        "training.evaluate_ms": ms * s.median("training.evaluate"),
        "datasets.batch_ms": ms * s.median("datasets.batch"),
        "datasets.batch_share": _ratio(
            s.total_under("datasets.batch", TRAIN_SPANS), train_time),
        "datasets.setup_s": s.total("datasets.make_synthetic",
                                    "datasets.split_and_standardize")
        / n_setups,
        "cli.load_dataset_s": s.total("cli.load_dataset") / n_setups,
        "cli.config_s": s.total("cli.load_run_config", "cli.make_model_config",
                                "cli.make_train_config") / n_setups,
        "probe.simulate_chain_s": s.total("probe.simulate_chain") / n_units,
        "probe.chain_self_us_per_step": us * _ratio(
            s.self_total.get("probe.simulate_chain", 0.0), chain_steps),
        "probe.coupling_s": s.total("probe.two_trajectory_coupling") / n_units,
        "probe.memory_report_ms": ms * s.median("probe.memory_report"),
        "probe.check_contraction_ms": ms * s.median("probe.check_contraction"),
        "trace.overhead_pct": overhead_pct,
    }
