"""Command-line front end.

Subcommands: train, eval, probe, sweep-patch, sweep-lookback, ablate,
gradcheck. Runs read a JSON config file ({"model": ..., "train": ...,
"data": ..., "probe": ...}; unknown keys are rejected), and every run
writes a resolved-config snapshot into its own timestamp-suffixed artifact
directory. --seed sets probe.seed for probe and train.seed for the rest
(eval draws nothing at random and has none); the grid commands (the sweeps
and ablate) drop a repeated grid value with a warning.

Exit codes: 0 success, 1 a gradcheck error of at least 1e-4, 2 config
error (ConfigError), 3 data error (DataError or OSError), 4 numerical
divergence (FloatingPointError), 5 probe-invariant failure. Any other
exception is a bug and propagates. A non-finite training loss only warns
(see training.train).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .cells import grad_check
from .datasets import (DataConfig, load_csv, make_synthetic,
                       split_and_standardize)
from .model import (Forecaster, ModelConfig, load_checkpoint,
                    save_checkpoint)
from .probe import (ChainConfig, chain_params, check_contraction,
                    memory_report, ratio_stability_report, simulate_chain,
                    two_trajectory_coupling, write_acf_csv, write_probe_report,
                    write_trace_csv)
from .tensorops import (DataError, Rng, from_dict, read_json, write_csv,
                        write_json)
from .training import (TrainConfig, evaluate, mse_loss, persistence_metrics,
                       train, write_history_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_PROBE = 5


class ConfigError(ValueError):
    pass


def _build(cls, payload):
    """from_dict(cls, payload); a rejected value is a ConfigError."""
    try:
        return from_dict(cls, payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_run_config(path: str | None, overrides: dict) -> dict:
    cfg: dict = {"model": {}, "train": {}, "data": {}, "probe": {}}
    if path:
        loaded = read_json(path, ConfigError, "config")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        for key in cfg:
            section = loaded.get(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"config section {key!r} is not an object")
            cfg[key].update(section)
    for dotted, value in overrides.items():
        section, key = dotted.split(".", 1)
        cfg[section][key] = value
    return cfg


def load_seeded_config(args, section: str) -> dict:
    """The run config of args.config with --seed, if given, as the seed the
    command draws from, cfg[section]["seed"]. That seed (default 0) is
    written into the section, so resolved_config.json records it."""
    overrides = {} if args.seed is None else {f"{section}.seed": args.seed}
    cfg = load_run_config(args.config, overrides)
    cfg[section].setdefault("seed", 0)
    return cfg


def make_model_config(payload: dict) -> ModelConfig:
    return _build(ModelConfig, payload)


def make_train_config(payload: dict) -> TrainConfig:
    return _build(TrainConfig, payload)


def load_dataset(data_cfg: dict, model_cfg: ModelConfig):
    cfg = _build(DataConfig, data_cfg)
    if cfg.source == "csv":
        raw = load_csv(cfg)
    else:
        try:
            raw = make_synthetic(cfg.kind, cfg.params, seed=cfg.seed)
        except DataError:
            raise
        except (OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad synthetic data params: {exc}") from exc
    if raw.n_channels != model_cfg.n_channels:
        raise DataError(f"dataset has {raw.n_channels} channels, the model "
                        f"expects {model_cfg.n_channels}")
    return split_and_standardize(
        raw, model_cfg.lookback, model_cfg.horizon, stride=cfg.window_stride,
        preset=cfg.preset if cfg.source == "csv" else None)


def prepare_run_dir(output_dir: str, command: str, force: bool) -> Path:
    base = Path(os.environ.get("PSLSTM_OUTPUT_DIR", output_dir))
    if force:
        run = base / command
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        run = base / f"{command}-{stamp}"
        k = 0
        while run.exists():
            k += 1
            run = base / f"{command}-{stamp}-{k}"
    run.mkdir(parents=True, exist_ok=True)
    return run


def write_run_info(run_dir: Path, cfg: dict, seed: int | None,
                   seconds: float) -> None:
    info = {"version": __version__, "seed": seed,
            "wall_clock_seconds": round(seconds, 3)}
    write_json(run_dir / "run_info.json", info, indent=2)
    write_json(run_dir / "resolved_config.json", cfg, indent=2)


def _prepare_run(cfg: dict, datasets: dict | None = None):
    """The model config, train config and dataset of one training run, so a
    bad config or dataset stops the run before anything is written. Runs
    that share a datasets dict share the dataset of each window shape."""
    model_cfg = make_model_config(cfg["model"])
    train_cfg = make_train_config(cfg["train"])
    datasets = {} if datasets is None else datasets
    shape = (model_cfg.lookback, model_cfg.horizon, model_cfg.n_channels)
    if shape not in datasets:
        datasets[shape] = load_dataset(cfg["data"], model_cfg)
    return model_cfg, train_cfg, datasets[shape]


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    cfg = load_seeded_config(args, "train")
    model_cfg, train_cfg, dataset = _prepare_run(cfg)
    run_dir = prepare_run_dir(args.output_dir, "train", args.force)
    model, history = train(Forecaster(model_cfg, seed=train_cfg.seed), dataset,
                           train_cfg)
    metrics = evaluate(model, dataset, "test")
    save_checkpoint(model, run_dir / "checkpoint.json")
    write_history_csv(history, run_dir / "history.csv")
    baseline = persistence_metrics(dataset, "test")
    write_json(run_dir / "metrics.json",
               {"test": asdict(metrics), "persistence": asdict(baseline),
                "seed": train_cfg.seed})
    write_run_info(run_dir, cfg, train_cfg.seed, time.perf_counter() - t0)
    print(f"train: test mse={metrics.mse:.6f} mae={metrics.mae:.6f} "
          f"-> {run_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    cfg = load_run_config(args.config, {})
    # the model comes from the checkpoint; train's checks still hold
    if cfg["model"]:
        make_model_config(cfg["model"])
    if cfg["train"]:
        make_train_config(cfg["train"])
    model = load_checkpoint(args.checkpoint)
    dataset = load_dataset(cfg["data"], model.config)
    run_dir = prepare_run_dir(args.output_dir, "eval", args.force)
    metrics = evaluate(model, dataset, args.split)
    write_json(run_dir / "metrics.json", {args.split: asdict(metrics)})
    write_run_info(run_dir, cfg, None, time.perf_counter() - t0)
    print(f"eval: {args.split} mse={metrics.mse:.6f} mae={metrics.mae:.6f}")
    return EXIT_OK


def cmd_probe(args) -> int:
    t0 = time.perf_counter()
    cfg = load_seeded_config(args, "probe")
    chain = _build(ChainConfig, cfg["probe"])
    run_dir = prepare_run_dir(args.output_dir, "probe", args.force)
    params, _, _ = chain_params(chain)
    sup, contractive = check_contraction(params, threshold=0.9, n_grid=256,
                                         seed=chain.seed)
    trace = simulate_chain(chain)
    write_trace_csv(run_dir / "trace.csv", trace)
    ratio = ratio_stability_report(trace)
    report = coupling = None
    failed = False
    if contractive:
        report = memory_report(trace, max_lag=min(20, trace.y_seq.shape[0] // 10))
        coupling = two_trajectory_coupling(chain, horizon=min(500, chain.horizon))
        write_acf_csv(run_dir / "acf.csv", report)
        if not (report.rho_hat < 1.0 and coupling.step_below_tol is not None):
            failed = True
    else:
        # amplification regime: overflow is the expected, recorded outcome
        if chain.mode == "raw" and ratio.overflow_step is None \
                and np.nanmin(trace.f_norm) > 1.0:
            failed = True
    write_probe_report(run_dir / "probe.json", chain, sup, report, coupling, ratio)
    write_run_info(run_dir, cfg, chain.seed, time.perf_counter() - t0)
    print(f"probe: gate sup={sup:.4f} contractive={contractive} -> {run_dir}")
    return EXIT_PROBE if failed else EXIT_OK


def _run_grid(args, cfg: dict, filename: str, header: list, variants: list,
              score) -> int:
    """Train once per (label, model overrides) variant and write one CSV row
    per variant: the label, then score(model, dataset)'s floats as repr. A
    repeated label is dropped with one warning line. Every variant's configs
    and dataset are checked before training starts."""
    t0 = time.perf_counter()
    runs, datasets = {}, {}
    for label, overrides in variants:
        if label in runs:
            print(f"warning: duplicate {header[0].replace('_', ' ')} {label} "
                  f"ignored", file=sys.stderr)
            continue
        sub = {**cfg, "model": {**cfg["model"], **overrides}}
        runs[label] = _prepare_run(sub, datasets)
    run_dir = prepare_run_dir(args.output_dir, args.command, args.force)
    rows = []
    for label, (model_cfg, train_cfg, dataset) in runs.items():
        model, _ = train(Forecaster(model_cfg, seed=train_cfg.seed), dataset,
                         train_cfg)
        values = score(model, dataset)
        rows.append([label] + [repr(v) for v in values])
        print(f"{args.command} {label}: " + " ".join(
            f"{name}={v:.6f}" for name, v in zip(header[1:], values)))
    write_csv(run_dir / filename, header, rows)
    write_run_info(run_dir, cfg, cfg["train"]["seed"],
                   time.perf_counter() - t0)
    return EXIT_OK


#: sweep command -> (help, the model fields each size is written to)
SWEEPS = {
    "sweep-patch": ("train once per patch size",
                    ("patch_size", "patch_stride")),
    "sweep-lookback": ("train once per look-back length", ("lookback",)),
}


def cmd_sweep(args) -> int:
    fields = SWEEPS[args.command][1]
    variants = [(s, dict.fromkeys(fields, s)) for s in sorted(args.sizes)]

    def scores(model, dataset):
        m = evaluate(model, dataset, "test")
        return m.mse, m.mae

    return _run_grid(args, load_seeded_config(args, "train"),
                     args.command.replace("-", "_") + ".csv",
                     [fields[0], "test_mse", "test_mae"], variants, scores)


ABLATION_AXES = {
    "memory_mixing": [True, False],
    "channel_strategy": ["independent", "mixed"],
    "stabilized": [True, False],
    "forget_activation": ["exponential", "sigmoid"],
}


def cmd_ablate(args) -> int:
    cfg = load_seeded_config(args, "train")
    combos = [{}]
    for axis in args.axes:
        combos = [{**c, axis: v} for c in combos for v in ABLATION_AXES[axis]]
    variants = []
    for combo in combos:
        overrides = {"gate_mode": dict(cfg["model"].get("gate_mode", {}))}
        for axis, value in combo.items():
            if axis == "channel_strategy":
                overrides["channel_strategy"] = value
            else:
                overrides["gate_mode"][axis] = value
        variants.append((",".join(f"{k}={v}" for k, v in combo.items()),
                         overrides))

    def scores(model, dataset):
        return tuple(evaluate(model, dataset, split).mse
                     for split in ("train", "val", "test"))

    return _run_grid(args, cfg, "ablation.csv",
                     ["variant", "train_mse", "val_mse", "test_mse"], variants,
                     scores)


def cmd_gradcheck(args) -> int:
    cfg = load_seeded_config(args, "train")
    model_payload = cfg["model"] or {
        "lookback": 16, "horizon": 4, "n_channels": 2, "patch_size": 4,
        "embed_dim": 8, "n_blocks": 1, "n_heads": 2, "dropout_rate": 0.0}
    model_cfg = make_model_config(model_payload)
    seed = make_train_config(cfg["train"]).seed
    model = Forecaster(model_cfg, seed=seed)
    rng = Rng(seed).spawn(5)
    x = rng.normal((2, model_cfg.lookback, model_cfg.n_channels))
    y = rng.normal((2, model_cfg.horizon, model_cfg.n_channels))

    def loss_and_grads(params):
        yhat, tape = model.forward(x)
        loss, grad = mse_loss(yhat, y)
        return loss, model.backward(tape, grad)

    err = grad_check(loss_and_grads, model.params, epsilon=1e-5)
    print(f"gradcheck: max relative error {err:.3e}")
    return EXIT_OK if err < 1e-4 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pslstm",
                                     description="patch-based sLSTM forecaster")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_section: str | None = "train"):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output-dir", default="runs")
        if seed_section:
            p.add_argument("--seed", type=int,
                           help=f"overrides the config's {seed_section}.seed")
        p.add_argument("--force", action="store_true",
                       help="reuse a fixed run directory instead of timestamping")

    p = sub.add_parser("train", help="train a model and report test metrics")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p, seed_section=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("probe", help="run the memory-property probe")
    common(p, seed_section="probe")
    p.set_defaults(fn=cmd_probe)

    for name, (help_text, _) in SWEEPS.items():
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--sizes", type=int, nargs="+", required=True)
        p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("ablate", help="toggle design axes and compare")
    common(p)
    p.add_argument("--axes", nargs="+", required=True,
                   choices=sorted(ABLATION_AXES))
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check "
                       "of the config's model (default: a 16-step, 2-channel "
                       "model) on two random windows drawn from train.seed; "
                       "reads no data")
    common(p)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def _warn_one_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # one stderr line per warning; an error, if any, is the last line
        warnings.showwarning = _warn_one_line
        try:
            return args.fn(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except (DataError, OSError) as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except FloatingPointError as exc:
            print(f"numerical divergence: {exc}", file=sys.stderr)
            return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
