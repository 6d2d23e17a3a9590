"""End-to-end tests of the command-line front end and its exit codes."""

import contextlib
import io
import json
import math
import re
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslstm import cli, datasets
from pslstm.cells import GateMode
from pslstm.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_OK, DataConfig,
                        load_run_config, main, make_model_config,
                        make_train_config)
from pslstm.datasets import SYNTHETIC_PARAMS
from pslstm.model import Forecaster, ModelConfig
from pslstm.probe import ChainConfig
from pslstm.tensorops import ShapeError, from_dict
from pslstm.training import TrainConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY_MODEL = {"lookback": 16, "horizon": 4, "n_channels": 1, "patch_size": 4,
              "embed_dim": 8, "n_blocks": 1, "n_heads": 2, "dropout_rate": 0.0}


def write_config(tmp_path, name="config.json", **sections):
    cfg = {
        "model": TINY_MODEL,
        "train": {"max_epochs": 1, "batch_size": 32},
        "data": {"source": "synthetic",
                 "params": {"length": 400, "period": 24, "noise_std": 0.1}},
    }
    cfg.update(sections)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, *argv):
    return main([argv[0], "--output-dir", str(tmp_path / "runs"),
                 "--force", *argv[1:]])


# -- config loading ---------------------------------------------------------

def test_unknown_config_section_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {}, "optimizer": {}}))
    code = main(["train", "--config", str(path)])
    assert code == EXIT_CONFIG


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["train", "--config", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize("command, content, code", [
    ("train", b"\xff\xfe", EXIT_CONFIG),          # not UTF-8
    ("train", b"[" * 100_000, EXIT_CONFIG),      # too deep for the parser
    ("eval", b"[" * 100_000, EXIT_DATA),
], ids=["undecodable_config", "deep_config", "deep_checkpoint"])
def test_unparseable_json_file_exits_with_one_line(tmp_path, capsys, command,
                                                   content, code):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = ["train", "--config", str(bad)] if command == "train" else \
        ["eval", "--config", write_config(tmp_path), "--checkpoint", str(bad)]
    assert run(tmp_path, *argv) == code
    err = capsys.readouterr().err
    prefix = "config error: " if code == EXIT_CONFIG else "data error: "
    assert err.startswith(prefix + "malformed ") and str(bad) in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "runs").exists()


def test_unknown_model_key_rejected(tmp_path):
    cfg = write_config(tmp_path, model={**TINY_MODEL, "hidden_layers": 3})
    assert run(tmp_path, "train", "--config", cfg) == EXIT_CONFIG


SYNTHETIC = {"source": "synthetic",
             "params": {"length": 400, "period": 24, "noise_std": 0.1}}


@pytest.mark.parametrize("command, payload", [
    ("train", 5),
    ("train", {"model": 3}),
    ("train", {"model": TINY_MODEL, "data": [1]}),
    ("train", {"model": TINY_MODEL, "data": {**SYNTHETIC,
                                             "window_stride": "two"}}),
    ("train", {"model": TINY_MODEL, "data": {**SYNTHETIC, "window_stride": 0}}),
    ("train", {"model": TINY_MODEL, "data": {**SYNTHETIC, "seed": "x"}}),
    ("train", {"model": TINY_MODEL, "train": {"seed": "x"},
               "data": SYNTHETIC}),
    ("train", {"model": TINY_MODEL, "data": {**SYNTHETIC, "params": 5}}),
    ("train", {"model": TINY_MODEL, "data": {"source": "synthetic",
                                             "params": {"length": "long"}}}),
    ("train", {"model": {**TINY_MODEL, "gate_mode": {"memory_mixing": "false"}},
               "data": SYNTHETIC}),
    ("train", {"model": {**TINY_MODEL, "gate_mode": {"stabilized": "no"}},
               "data": SYNTHETIC}),
    ("train", {"model": {**TINY_MODEL, "lookback": 32.5}, "data": SYNTHETIC}),
    ("train", {"model": {**TINY_MODEL, "n_blocks": 2**63}, "data": SYNTHETIC}),
    ("train", {"model": {**TINY_MODEL, "patch_stride": 10**400},
               "data": SYNTHETIC}),
    ("train", {"model": TINY_MODEL, "train": {"max_epochs": "one"},
               "data": SYNTHETIC}),
    ("train", {"model": TINY_MODEL, "train": {"batch_size": 0},
               "data": SYNTHETIC}),
    ("train", {"model": TINY_MODEL, "data": {**SYNTHETIC, "windw_stride": 2}}),
    ("train", {"model": TINY_MODEL, "data": {**SYNTHETIC,
                                             "has_header": "false"}}),
    ("train", {"model": TINY_MODEL, "data": {**SYNTHETIC, "delimiter": 5}}),
    ("train", {"model": TINY_MODEL, "data": {**SYNTHETIC, "delimiter": ",,"}}),
    ("train", {"model": TINY_MODEL, "data": {**SYNTHETIC, "max_rows": -5}}),
    ("train", {"model": TINY_MODEL, "data": {"source": "csv"}}),
    ("probe", {"probe": {"q": "eight"}}),
    ("probe", {"probe": {"horizon": 2.5}}),
    ("probe", {"probe": {"q": 0}}),
    ("probe", {"probe": {"horizon": 2**63}}),
    ("probe", {"probe": {"q": 10**400}}),
    ("probe", {"probe": {"p": True}}),
    ("probe", {"probe": {"weight_scale": "big"}}),
    ("probe", {"probe": {"noise_std": float("nan")}}),
    ("probe", {"probe": {"target_gate_bound": -1.0}}),
    ("train", {"model": TINY_MODEL, "train": {"seed": -1}, "data": SYNTHETIC}),
    ("train", {"model": TINY_MODEL, "data": {**SYNTHETIC, "seed": -1}}),
    ("probe", {"probe": {"seed": -1}}),
    ("probe", {"probe": {"param_seed": -1}}),
    ("train", {"model": TINY_MODEL, "train": {"learning_rate": 10**400},
               "data": SYNTHETIC}),
    ("probe", {"probe": {"weight_scale": 10**400}}),
    ("train", {"model": TINY_MODEL, "data": {**SYNTHETIC,
                                             "kind": "sinusiod"}}),
    ("train", {"model": TINY_MODEL, "data": {
        **SYNTHETIC, "params": {"lenght": 400, "perod": 7}}}),
    ("probe", {"probe": {"weight_scale": -1.0}}),
    ("probe", {"probe": {"out_scale": -0.5}}),
    ("train", {"model": TINY_MODEL, "data": {
        **SYNTHETIC, "params": {"length": 400, "noise_std": -0.5}}}),
    ("train", {"model": TINY_MODEL, "data": {
        **SYNTHETIC, "params": {"length": 400, "period": 0}}}),
    ("train", {"model": TINY_MODEL, "data": {
        **SYNTHETIC, "params": {"length": 400.7}}}),
    ("train", {"model": TINY_MODEL, "data": {
        **SYNTHETIC, "params": {"length": 400, "channels": 1.5}}}),
    ("train", {"model": TINY_MODEL, "data": {
        "source": "synthetic", "kind": "long_memory_arfima_like",
        "params": {"length": 400, "n_components": 2.5}}}),
    ("train", {"model": TINY_MODEL, "data": {
        "source": "synthetic", "kind": "ar1",
        "params": {"length": 400, "phi": float("nan")}}}),
    ("train", {"model": TINY_MODEL, "data": {
        **SYNTHETIC, "params": {"length": 400, "period": 10**400}}}),
    ("train", {"model": TINY_MODEL, "data": {
        "source": "synthetic", "kind": "ar1",
        "params": {"length": 400, "phi": 1.0,
                   "allow_nonstationary": "false"}}}),
    ("train", {"model": TINY_MODEL, "data": {
        **SYNTHETIC, "params": {"length": 100_000_000_000}}}),
    ("train", {"model": TINY_MODEL, "data": {
        **SYNTHETIC, "params": {"length": 2**63}}}),
    ("train", {"model": TINY_MODEL, "data": {
        **SYNTHETIC, "params": {"channels": 2**63}}}),
    ("train", {"model": TINY_MODEL, "data": {
        "source": "synthetic", "kind": "long_memory_arfima_like",
        "params": {"n_components": 2**63}}}),
], ids=["top_level_number", "section_number", "data_list", "stride_word",
        "stride_zero", "data_seed_word", "train_seed_word", "params_number",
        "length_word", "memory_mixing_string", "stabilized_string",
        "lookback_float", "blocks_past_the_parameter_bound",
        "stride_past_the_lookback", "max_epochs_word", "batch_size_zero",
        "data_key_typo", "has_header_string", "delimiter_number",
        "delimiter_two_chars", "max_rows_negative", "csv_without_path",
        "probe_q_word",
        "probe_horizon_float", "probe_q_zero", "probe_horizon_past_the_bound",
        "probe_q_past_the_bound",
        "probe_p_bool", "probe_scale_word", "probe_noise_nan",
        "probe_negative_gate_bound", "train_seed_negative",
        "data_seed_negative", "probe_seed_negative",
        "probe_param_seed_negative", "learning_rate_huge_int",
        "probe_scale_huge_int", "data_kind_typo", "data_params_key_typo",
        "probe_weight_scale_negative", "probe_out_scale_negative",
        "sinusoid_noise_negative", "sinusoid_period_zero", "length_float",
        "channels_float", "n_components_float", "ar1_phi_nan",
        "period_huge_int", "ar1_string_bool", "length_past_the_bound",
        "length_huge_int", "channels_huge_int", "n_components_huge_int"])
def test_malformed_config_value_exits_config(tmp_path, capsys, command,
                                             payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert run(tmp_path, command, "--config", str(path)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    # the config is checked before the run directory is made
    assert not (tmp_path / "runs").exists()


def test_sinusoid_period_too_small_for_length_exits_config(tmp_path, capsys):
    # 5e-324 is positive, but 2*pi*(length - 1)/period overflows to inf
    cfg = write_config(tmp_path, data={**SYNTHETIC, "params": {
        "length": 400, "period": 5e-324}})
    assert run(tmp_path, "train", "--config", cfg) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert "period" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--seed", "-1"],
    ["gradcheck", "--seed", "-3"],
    ["probe", "--seed", "-2"],
    ["sweep-patch", "--sizes", "4", "--seed", "-1"],
    ["sweep-patch", "--sizes", "4", "8", "--config", "BAD"],
    ["ablate", "--axes", "memory_mixing", "--config", "BAD"],
    ["sweep-patch", "--sizes", "32"],
    ["ablate", "--axes", "stabilized", "--config", "GATE"],
], ids=["train_flag", "gradcheck_flag", "probe_flag", "sweep_flag",
        "sweep_config",
        "ablate_config", "sweep_patch_over_lookback", "ablate_gate_mode_number"])
def test_grid_and_flag_errors_exit_config_without_a_run_dir(tmp_path, capsys,
                                                            argv):
    bad = {"BAD": write_config(tmp_path, "bad.json",
                               model={**TINY_MODEL, "dropout_rate": "x"}),
           # ablate updates each variant's gate_mode keys from this one
           "GATE": write_config(tmp_path, "gate.json",
                                model={**TINY_MODEL, "gate_mode": 5})}
    cfg = write_config(tmp_path)
    argv = [bad.get(a, a) for a in argv]
    if "--config" not in argv:
        argv += ["--config", cfg]
    assert main([*argv, "--output-dir", str(tmp_path / "runs")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv", [
    ["train"], ["eval", "--checkpoint", "unread.json"], ["probe"],
    ["sweep-patch", "--sizes", "4"], ["sweep-lookback", "--sizes", "16"],
    ["ablate", "--axes", "memory_mixing"], ["gradcheck"]],
    ids=lambda argv: argv[0])
@pytest.mark.parametrize("section, payload", [
    ("probe", {"q": -1, "horizon": "x"}), ("model", {"lookback": -5}),
    ("data", {"params": {"lenght": 400}})],
    ids=["bad_probe_section", "bad_model_section", "bad_data_params"])
def test_every_command_checks_every_section_before_its_run_dir(
        tmp_path, capsys, argv, section, payload):
    # train reads no probe section and probe no model or data section, yet
    # each command builds every non-empty section with its dataclass first,
    # a synthetic data section's params included
    cfg = write_config(tmp_path, **{section: payload})
    assert run(tmp_path, *argv, "--config", cfg) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "runs").exists()


#: config section -> the dataclass its fields are checked against
SECTIONS = {"model": ModelConfig, "model.gate_mode": GateMode,
            "train": TrainConfig, "data": DataConfig, "probe": ChainConfig}

JSON_VALUES = {
    "null": st.none(), "bool": st.booleans(), "int": st.integers(-3, 3),
    "float": st.floats(-3.0, 3.0), "str": st.text(max_size=3),
    "list": st.lists(st.integers(0, 3), max_size=2),
    "object": st.dictionaries(st.sampled_from("ab"), st.integers(0, 3),
                              max_size=1),
}


def json_kinds(hint) -> set:
    """The JSON kinds a field annotation accepts."""
    args = typing.get_args(hint)
    kinds = {"null"} if type(None) in args else set()
    if kinds:
        (hint,) = [a for a in args if a is not type(None)]
    if typing.get_origin(hint) is typing.Literal:
        hint = str
    return kinds | {int: {"int"}, float: {"int", "float"}, bool: {"bool"},
                    str: {"str"}}.get(hint, {"object"})


WRONG_KINDS = [(section, name, kind)
               for section, cls in SECTIONS.items()
               for name, hint in typing.get_type_hints(cls).items()
               for kind in sorted(JSON_VALUES.keys() - json_kinds(hint))]


def base_config() -> dict:
    return {"model": dict(TINY_MODEL), "train": {"max_epochs": 1},
            "data": {**SYNTHETIC, "params": dict(SYNTHETIC["params"])},
            "probe": {}}


def put(cfg: dict, section: str, name: str, value) -> None:
    """cfg[section][name] = value; a dotted section names a nested object."""
    outer, _, inner = section.partition(".")
    target = cfg[outer]
    if inner:
        target = target.setdefault(inner, {})
    target[name] = value


def assert_config_error(cfg: dict, section: str, context) -> None:
    """The command that reads section exits 2 on cfg with one `config
    error:` line on stderr and makes no run directory."""
    command = "probe" if section.startswith("probe") else "train"
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        path = Path(tmp) / "bad.json"
        path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(path), "--output-dir",
                     str(Path(tmp) / "runs"), "--force"])
        assert not (Path(tmp) / "runs").exists()
    assert code == EXIT_CONFIG, context
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), context


@given(st.data())
def test_wrong_json_kind_in_any_field_exits_config(data):
    section, name, kind = data.draw(st.sampled_from(WRONG_KINDS))
    value = data.draw(JSON_VALUES[kind])
    cfg = base_config()
    put(cfg, section, name, value)
    assert_config_error(cfg, section, (section, name, value))


#: (synthetic kind, params key, JSON kind) of every wrong kind of every key
WRONG_PARAM_KINDS = [
    (kind, key, json_kind)
    for kind, defaults in SYNTHETIC_PARAMS.items()
    for key, default in defaults.items()
    for json_kind in sorted(JSON_VALUES.keys() - json_kinds(type(default)))]


@given(st.data())
def test_wrong_json_kind_in_any_data_param_exits_config(data):
    # a param's type is the type of its default
    kind, key, json_kind = data.draw(st.sampled_from(WRONG_PARAM_KINDS))
    value = data.draw(JSON_VALUES[json_kind])
    cfg = base_config()
    cfg["data"] = {"kind": kind, "params": {"length": 400, key: value}}
    assert_config_error(cfg, "data", (kind, key, value))


#: config section -> the keys it accepts (data.params: a sinusoid's)
KNOWN_KEYS = {**{section: set(typing.get_type_hints(cls))
                 for section, cls in SECTIONS.items()},
              "data.params": set(SYNTHETIC_PARAMS["sinusoid"])}

#: (section, field, lowest accepted value) of every documented lower bound
LOWER_BOUNDS = [
    *[("model", name, 1) for name in ("lookback", "horizon", "n_channels",
                                      "patch_size", "embed_dim", "n_blocks",
                                      "n_heads")],
    ("model", "patch_stride", 0), ("train", "batch_size", 1),
    ("train", "patience", 1), ("train", "max_epochs", 0), ("train", "seed", 0),
    ("data", "window_stride", 1), ("data", "max_rows", 1), ("data", "seed", 0),
    ("data.params", "length", 1), ("data.params", "channels", 1),
    ("probe", "p", 1), ("probe", "q", 1), ("probe", "horizon", 2),
    ("probe", "seed", 0), ("probe", "param_seed", 0),
]

NEGATIVE = st.floats(-1.0, -5e-324)     # below 0, down to the least float
NOT_POSITIVE = st.floats(-1.0, 0.0)     # 0.0 and -0.0 included
AT_LEAST_ONE = st.floats(1.0, 2.0)

#: (section, field, floats just outside its documented range); the other
#: Adam coefficient keeps its default, beta1 0.9 or beta2 0.999
FLOAT_BOUNDS = [
    ("model", "dropout_rate", NEGATIVE), ("model", "dropout_rate",
                                          AT_LEAST_ONE),
    ("train", "learning_rate", NOT_POSITIVE),
    ("train", "clip_norm", NOT_POSITIVE),
    ("train", "eps_opt", NOT_POSITIVE),
    ("train", "beta1", NOT_POSITIVE), ("train", "beta1", st.floats(0.999, 2.0)),
    ("train", "beta1", AT_LEAST_ONE), ("train", "beta2", NOT_POSITIVE),
    ("train", "beta2", st.floats(-1.0, 0.9)), ("train", "beta2", AT_LEAST_ONE),
    ("data.params", "period", NOT_POSITIVE),
    ("data.params", "noise_std", NEGATIVE),
    ("probe", "noise_std", NEGATIVE),
    ("probe", "target_gate_bound", NOT_POSITIVE),
    ("probe", "weight_scale", NEGATIVE), ("probe", "out_scale", NEGATIVE),
]

#: declared float range (op, bound) -> the FLOAT_BOUNDS values outside it
OUTSIDE = {(">=", 0): NEGATIVE, (">", 0): NOT_POSITIVE, ("<", 1): AT_LEAST_ONE}


def declared_bounds() -> set:
    """(section, field, op, bound) of every range declared on a field
    annotation of the config schemas, the sinusoid params included."""
    schemas = {**SECTIONS,
               "data.params": datasets._PARAMS_CLASSES["sinusoid"]}
    return {(section, name, op, bound)
            for section, cls in schemas.items()
            for name, hint in typing.get_type_hints(
                cls, include_extras=True).items()
            for arg in (hint, *typing.get_args(hint))      # X | None
            for op, bound in getattr(arg, "__metadata__", ())}


def test_range_tables_cover_every_declared_bound():
    declared = declared_bounds()
    rows = {(section, name, ">=", lowest)
            for section, name, lowest in LOWER_BOUNDS}
    rows |= {(section, name, *bound) for section, name, values in FLOAT_BOUNDS
             for bound, outside in OUTSIDE.items() if values is outside}
    assert declared - rows == set(), "declared bounds without a row"
    assert rows - declared == set(), "rows without a declared bound"
    # the rows that test a cross-field rule name a field with a range too
    assert {row[:2] for row in FLOAT_BOUNDS} <= {d[:2] for d in declared}


@given(st.data())
def test_unknown_key_or_out_of_range_value_exits_config(data):
    if data.draw(st.booleans(), label="unknown key"):
        section = data.draw(st.sampled_from(sorted(KNOWN_KEYS)))
        name = data.draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1,
                                 max_size=12).filter(
            lambda key: key not in KNOWN_KEYS[section]))
        value = data.draw(st.one_of(*JSON_VALUES.values()))
    else:
        section, name, lowest = data.draw(st.sampled_from(LOWER_BOUNDS))
        value = data.draw(st.integers(lowest - 3, lowest - 1))
    bad = [(section, name, value)]
    # every float range in every example
    bad += [(section, name, data.draw(values, label=f"{section}.{name}"))
            for section, name, values in FLOAT_BOUNDS]
    for section, name, value in bad:
        cfg = base_config()
        put(cfg, section, name, value)
        assert_config_error(cfg, section, (section, name, value))


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_shipped_configs_build_through_the_schemas(path):
    cfg = load_run_config(str(path), {})
    assert any(cfg.values())
    if cfg["model"]:
        assert isinstance(make_model_config(cfg["model"]), ModelConfig)
    assert isinstance(make_train_config(cfg["train"]), TrainConfig)
    assert isinstance(from_dict(DataConfig, cfg["data"]), DataConfig)
    assert isinstance(from_dict(ChainConfig, cfg["probe"]), ChainConfig)


def test_cli_overrides_file_values(tmp_path):
    cfg_path = write_config(tmp_path)
    cfg = load_run_config(cfg_path, {"train.max_epochs": 5})
    assert cfg["train"]["max_epochs"] == 5
    assert cfg["model"]["lookback"] == 16


# -- train ------------------------------------------------------------------

def test_train_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    assert run(tmp_path, "train", "--config", cfg, "--seed", "0") == EXIT_OK
    run_dir = tmp_path / "runs" / "train"
    for name in ("metrics.json", "checkpoint.json", "history.csv",
                 "run_info.json", "resolved_config.json"):
        assert (run_dir / name).exists(), name
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert metrics["test"]["mse"] > 0.0
    info = json.loads((run_dir / "run_info.json").read_text())
    assert info["seed"] == 0
    assert "wall_clock_seconds" in info


@pytest.mark.parametrize("kind", sorted(SYNTHETIC_PARAMS))
def test_each_kind_trains_without_params(tmp_path, kind):
    # left out, params are those of the documented defaults the kind reads
    defaults = {"length": 4000, "period": 24, "noise_std": 0.1}
    params = from_dict(DataConfig, {"kind": kind}).params
    assert params == {k: v for k, v in defaults.items()
                      if k in SYNTHETIC_PARAMS[kind]}
    cfg = write_config(tmp_path, data={"source": "synthetic", "kind": kind})
    assert run(tmp_path, "train", "--config", cfg) == EXIT_OK


#: the flags each training command needs besides --config
TRAINING_ARGS = {"train": [], "sweep-patch": ["--sizes", "4"],
                 "sweep-lookback": ["--sizes", "16"],
                 "ablate": ["--axes", "memory_mixing"], "gradcheck": []}


@pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
@pytest.mark.parametrize("command", sorted(TRAINING_ARGS))
def test_train_seed_from_config_or_flag_reaches_the_run(tmp_path, monkeypatch,
                                                        command, flag):
    seeds = []
    forecaster = cli.Forecaster
    monkeypatch.setattr(cli, "Forecaster", lambda config, seed: (
        seeds.append(seed) or forecaster(config, seed=seed)))
    seed = {} if flag else {"seed": 5}
    cfg = write_config(tmp_path, train={"max_epochs": 1, "batch_size": 32,
                                        **seed})
    argv = [command, "--config", cfg, *TRAINING_ARGS[command]]
    assert run(tmp_path, *argv, *(["--seed", "5"] if flag else [])) == EXIT_OK
    assert seeds and set(seeds) == {5}
    if command != "gradcheck":
        run_dir = tmp_path / "runs" / command
        info = json.loads((run_dir / "run_info.json").read_text())
        resolved = json.loads((run_dir / "resolved_config.json").read_text())
        assert info["seed"] == resolved["train"]["seed"] == 5


def test_grid_rows_repeat_train_at_the_config_seed(tmp_path):
    cfg = write_config(tmp_path, train={"max_epochs": 1, "batch_size": 32,
                                        "seed": 5})
    runs = tmp_path / "runs"
    assert run(tmp_path, "train", "--config", cfg) == EXIT_OK
    metrics = json.loads((runs / "train" / "metrics.json").read_text())
    mse = metrics["test"]["mse"]
    assert run(tmp_path, "sweep-patch", "--config", cfg,
               "--sizes", "4") == EXIT_OK
    assert run(tmp_path, "ablate", "--config", cfg,
               "--axes", "memory_mixing") == EXIT_OK
    sweep = (runs / "sweep-patch" / "sweep_patch.csv").read_text().splitlines()
    ablation = (runs / "ablate" / "ablation.csv").read_text().splitlines()
    assert sweep[1].split(",")[:2] == ["4", repr(mse)]
    assert ablation[1].startswith("memory_mixing=True,")
    assert ablation[1].split(",")[3] == repr(mse)


def test_divergence_exits_4_with_one_line_from_train_and_grids(tmp_path,
                                                              monkeypatch):
    def diverge(*args):
        raise FloatingPointError("non-finite gradient in embed.W")

    monkeypatch.setattr(cli, "train", diverge)
    cfg = write_config(tmp_path)
    for argv in (["train"], ["sweep-lookback", "--sizes", "16"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(tmp_path, *argv, "--config", cfg) == cli.EXIT_DIVERGED
        assert err.getvalue() == ("numerical divergence: non-finite gradient "
                                  "in embed.W\n"), argv


def test_train_stopped_by_a_non_finite_loss_warns_and_exits_0(tmp_path,
                                                              capsys):
    # raw mode at learning rate 50: the loss overflows in epoch 0, so the
    # run keeps the initial parameters, says so, and still writes its files
    cfg = write_config(
        tmp_path,
        model={**TINY_MODEL, "gate_mode": {"stabilized": False}},
        train={"max_epochs": 3, "learning_rate": 50, "clip_norm": 1000})
    assert run(tmp_path, "train", "--config", cfg) == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: training loss not finite in epoch 0; training stopped, "
        "keeping the initial parameters\n")
    runs = tmp_path / "runs" / "train"
    assert (runs / "history.csv").read_text().splitlines() == [
        "epoch,train_mse,val_mse,seconds"]
    assert json.loads((runs / "metrics.json").read_text())["test"]["mse"] > 0


def test_train_missing_dataset_exits_data(tmp_path, capsys):
    cfg = write_config(tmp_path, data={"source": "csv",
                                       "path": "/nonexistent/weather.csv"})
    assert run(tmp_path, "train", "--config", cfg) == EXIT_DATA
    assert "/nonexistent/weather.csv" in capsys.readouterr().err


def test_train_non_finite_csv_exits_data(tmp_path, capsys):
    rows = "".join(f"t{k},{k % 7}.0,inf\n" for k in range(100))
    data = tmp_path / "inf.csv"
    data.write_text("date,a,b\n" + rows)
    cfg = write_config(tmp_path, model={**TINY_MODEL, "n_channels": 2},
                       data={"source": "csv", "path": str(data)})
    assert run(tmp_path, "train", "--config", cfg) == EXIT_DATA
    assert "100 unparseable or non-finite" in capsys.readouterr().err


NON_FINITE = ["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1E400"]


CSV_DEFECTS = ["ragged", "empty", "header_only", "non_finite",
               "some_non_finite", "too_large", "bad_utf8"]


@st.composite
def broken_csvs(draw, defect):
    """(CSV bytes, has_header, has_date_column, channels) for a file with the
    defect, which no run can train on."""
    has_header, has_date = draw(st.booleans()), draw(st.booleans())
    channels = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(2, 60))
    rows = [[repr(float(v)) for v in rng.normal(size=channels)]
            for _ in range(n)]
    if defect == "non_finite":          # every row has a non-finite cell
        for row in rows:
            row[rng.integers(channels)] = draw(st.sampled_from(NON_FINITE))
    elif defect == "some_non_finite":   # too few finite rows remain
        n_finite = draw(st.integers(0, 20))
        for row in rows[n_finite:]:
            row[rng.integers(channels)] = draw(st.sampled_from(NON_FINITE))
    elif defect == "too_large":         # finite, but the statistics overflow
        for k, row in enumerate(rows):
            row[0] = repr((1.0 if k % 3 else -1.0) * 1.5e308)
    elif defect == "ragged":
        k = draw(st.integers(1, n - 1))
        rows[k] = rows[k] + ["1.0"] if draw(st.booleans()) or channels == 1 \
            else rows[k][1:]
    lines = [",".join((["t%d" % k] if has_date else []) + row)
             for k, row in enumerate(rows)]
    header = ",".join((["date"] if has_date else [])
                      + [f"c{j}" for j in range(channels)])
    if defect == "empty":
        lines = [""] * draw(st.integers(0, 2))
    elif defect == "header_only":
        lines = [header]
    elif has_header:
        lines = [header] + lines
    text = "\n".join(lines).encode()
    if defect == "bad_utf8":
        text += b"\n\xff\xfe,1.0"
    return text, has_header, has_date, channels


@pytest.mark.parametrize("defect", CSV_DEFECTS)
@settings(max_examples=10)
@given(data=st.data())
def test_broken_csv_exits_data_with_one_error_line(defect, data):
    # ragged rows, empty and header-only files, non-finite or overflowing
    # cells, undecodable bytes: exit 3, never a traceback or a divergence
    text, has_header, has_date, channels = data.draw(broken_csvs(defect))
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        data = Path(tmp) / "broken.csv"
        data.write_bytes(text)
        cfg = write_config(Path(tmp), model={**TINY_MODEL,
                                             "n_channels": channels},
                           data={"source": "csv", "path": str(data),
                                 "has_header": has_header,
                                 "has_date_column": has_date})
        code = main(["train", "--config", cfg, "--output-dir",
                     str(Path(tmp) / "runs"), "--force"])
        assert not (Path(tmp) / "runs").exists()
    lines = err.getvalue().splitlines()
    assert code == EXIT_DATA, (defect, lines)
    assert lines[-1].startswith("data error: "), (defect, lines)
    # only rows dropped on the way may add a one-line warning before it
    allowed = 1 if defect != "some_non_finite" else 2
    assert len(lines) <= allowed, (defect, lines)
    assert all(line.startswith("warning: ") for line in lines[:-1])


def test_train_channel_count_mismatch_exits_data(tmp_path, capsys):
    rows = "".join(f"t{k},{k % 7}.0,{k % 5}.0,{k % 3}.0\n" for k in range(200))
    data = tmp_path / "three.csv"
    data.write_text("date,a,b,c\n" + rows)
    cfg = write_config(tmp_path, model={**TINY_MODEL, "n_channels": 2},
                       data={"source": "csv", "path": str(data)})
    assert run(tmp_path, "train", "--config", cfg) == EXIT_DATA
    assert "3 channels" in capsys.readouterr().err


def test_internal_shape_error_is_not_reported_as_data_error(tmp_path,
                                                            monkeypatch):
    # a ShapeError is a ValueError, but only DataError and OSError exit 3
    def broken(self, x, training=False, dropout_rng=None):
        raise ShapeError("forward: internal shape bug")

    monkeypatch.setattr(Forecaster, "forward", broken)
    cfg = write_config(tmp_path)
    with pytest.raises(ShapeError, match="internal shape bug"):
        run(tmp_path, "train", "--config", cfg)


def test_train_metrics_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path)
    run(tmp_path, "train", "--config", cfg, "--seed", "7")
    first = (tmp_path / "runs" / "train" / "metrics.json").read_bytes()
    run(tmp_path, "train", "--config", cfg, "--seed", "7")
    second = (tmp_path / "runs" / "train" / "metrics.json").read_bytes()
    assert first == second


def test_run_dirs_timestamped_unless_forced(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "runs")
    main(["train", "--output-dir", out, "--config", cfg])
    main(["train", "--output-dir", out, "--config", cfg])
    dirs = [d for d in (tmp_path / "runs").iterdir() if d.is_dir()]
    assert len(dirs) == 2


def test_output_dir_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("PSLSTM_OUTPUT_DIR", str(tmp_path / "elsewhere"))
    assert main(["train", "--force", "--config", cfg]) == EXIT_OK
    assert (tmp_path / "elsewhere" / "train" / "metrics.json").exists()


# -- eval -------------------------------------------------------------------

def test_eval_checkpoint(tmp_path):
    cfg = write_config(tmp_path)
    run(tmp_path, "train", "--config", cfg)
    ckpt = tmp_path / "runs" / "train" / "checkpoint.json"
    assert run(tmp_path, "eval", "--config", cfg,
               "--checkpoint", str(ckpt), "--split", "val") == EXIT_OK
    metrics = json.loads((tmp_path / "runs" / "eval" / "metrics.json").read_text())
    assert "val" in metrics


def test_eval_has_no_seed_flag(tmp_path, capsys):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "eval", "--config", cfg, "--checkpoint", "missing.json",
            "--seed", "1")
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_eval_checkpoint_missing_parameter_exits_data(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run(tmp_path, "train", "--config", cfg)
    ckpt = tmp_path / "runs" / "train" / "checkpoint.json"
    blob = json.loads(ckpt.read_text())
    del blob["params"]["head.b"]
    ckpt.write_text(json.dumps(blob))
    assert run(tmp_path, "eval", "--config", cfg,
               "--checkpoint", str(ckpt)) == EXIT_DATA
    assert "head.b" in capsys.readouterr().err


def test_eval_checkpoint_string_bool_exits_data(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run(tmp_path, "train", "--config", cfg)
    ckpt = tmp_path / "runs" / "train" / "checkpoint.json"
    blob = json.loads(ckpt.read_text())
    blob["config"]["gate_mode"]["memory_mixing"] = "false"
    ckpt.write_text(json.dumps(blob))
    assert run(tmp_path, "eval", "--config", cfg,
               "--checkpoint", str(ckpt)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "memory_mixing" in err


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """(config path, checkpoint object): a trained checkpoint and the config
    it was trained with."""
    tmp = tmp_path_factory.mktemp("checkpoint")
    cfg = write_config(tmp)
    run(tmp, "train", "--config", cfg)
    return cfg, json.loads((tmp / "runs" / "train" / "checkpoint.json")
                           .read_text())


def test_eval_version_1_checkpoint_exits_data_with_one_line(tmp_path, capsys,
                                                            checkpoint):
    # the retired version 1 stored each block as its 12 dense per-gate
    # arrays; such a file is not converted but rejected
    cfg, blob = checkpoint
    blob = json.loads(json.dumps(blob))
    model = Forecaster(make_model_config(blob["config"]))
    for name in ("W", "b", "R"):
        del blob["params"][f"block0.{name}"]
    for name, arr in model.blocks[0].gates().items():
        blob["params"][f"block0.{name}"] = {"shape": list(arr.shape),
                                            "data": arr.ravel().tolist()}
    blob["version"] = 1
    ckpt = tmp_path / "v1.json"
    ckpt.write_text(json.dumps(blob))
    assert run(tmp_path, "eval", "--config", cfg,
               "--checkpoint", str(ckpt)) == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "data error: unsupported checkpoint version 1"]
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("section, field, value", [
    ("model", "lookback", 10**400), ("train", "batch_size", -1e308)],
    ids=["huge_lookback", "negative_batch_size"])
def test_eval_rejects_a_model_or_train_section_that_train_rejects(
        tmp_path, capsys, checkpoint, section, field, value):
    # eval takes its model from the checkpoint, yet checks the config's
    # model and train sections as train does, before it loads the checkpoint
    cfg, blob = checkpoint
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(blob))
    bad = json.loads(Path(cfg).read_text())
    bad[section][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    for argv in (["train"], ["eval", "--checkpoint", str(ckpt)]):
        assert run(tmp_path, *argv, "--config", str(path)) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), lines
        assert not (tmp_path / "runs").exists()


CHECKPOINT_DEFECTS = ["truncated", "version", "config", "params", "entry",
                      "shape", "data", "data_value", "version_swap"]


def other_kinds(*legal):
    """A JSON value of any kind but the legal ones."""
    return st.one_of([JSON_VALUES[k] for k in sorted(JSON_VALUES.keys()
                                                     - set(legal))])


def break_checkpoint(data, defect, blob) -> str:
    """The checkpoint's JSON text with exactly one defect."""
    blob = json.loads(json.dumps(blob))
    name = data.draw(st.sampled_from(sorted(blob["params"])))
    entry = blob["params"][name]
    if defect == "truncated":
        text = json.dumps(blob)
        return text[:data.draw(st.integers(0, len(text) - 1))]
    if defect == "version":
        blob["version"] = data.draw(other_kinds("int"))
    elif defect in ("config", "params"):
        blob[defect] = data.draw(other_kinds("object"))
    elif defect == "entry":
        blob["params"][name] = data.draw(other_kinds("object"))
    elif defect == "shape":
        shape = entry["shape"]
        bad = data.draw(other_kinds("int") | st.integers(-3, -1))
        entry["shape"] = data.draw(st.sampled_from([
            data.draw(other_kinds("list")), shape[:-1] + [bad]]))
    elif defect == "data":
        entry["data"] = data.draw(other_kinds("list"))
    elif defect == "data_value":
        k = data.draw(st.integers(0, len(entry["data"]) - 1))
        entry["data"][k] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf, 10**400])
            | other_kinds("int", "float"))
    elif defect == "version_swap":
        blob["version"] = 3 - blob["version"]
    return json.dumps(blob)


@pytest.mark.parametrize("defect", CHECKPOINT_DEFECTS)
@settings(max_examples=12)
@given(data=st.data())
def test_broken_checkpoint_exits_data_with_one_error_line(checkpoint, defect,
                                                          data):
    # truncated JSON, a wrong JSON kind anywhere, non-finite, bool or nested
    # data, a version swap: exit 3, never a traceback, a result or exit 4
    cfg, blob = checkpoint
    text = break_checkpoint(data, defect, blob)
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        path = Path(tmp) / "checkpoint.json"
        path.write_text(text)
        code = main(["eval", "--config", cfg, "--checkpoint", str(path),
                     "--output-dir", str(Path(tmp) / "runs"), "--force"])
    lines = err.getvalue().splitlines()
    assert code == EXIT_DATA, (defect, lines)
    assert len(lines) == 1 and lines[0].startswith("data error: "), lines


# -- probe ------------------------------------------------------------------

def test_probe_contraction_regime(tmp_path):
    cfg = write_config(tmp_path, probe={
        "q": 8, "noise_std": 0.01, "horizon": 2000, "seed": 0,
        "param_seed": 0, "weight_scale": 0.3, "out_scale": 1.5,
        "target_gate_bound": 0.9, "positive_feedback": True})
    assert run(tmp_path, "probe", "--config", cfg) == EXIT_OK
    blob = json.loads((tmp_path / "runs" / "probe" / "probe.json").read_text())
    assert blob["rho_hat"] < 1.0
    assert blob["coupling_step_below_tol"] is not None
    assert (tmp_path / "runs" / "probe" / "acf.csv").exists()
    trace = (tmp_path / "runs" / "probe" / "trace.csv").read_text()
    assert len(trace.splitlines()) == 1 + 2000


def test_probe_amplification_regime(tmp_path):
    cfg = write_config(tmp_path, probe={
        "q": 4, "horizon": 500, "seed": 0, "forget_bias_offset": 3.0,
        "mode": "raw"})
    assert run(tmp_path, "probe", "--config", cfg) == EXIT_OK
    blob = json.loads((tmp_path / "runs" / "probe" / "probe.json").read_text())
    assert blob["overflow_step"] is not None
    assert blob["max_ratio"] < 10.0
    trace = (tmp_path / "runs" / "probe" / "trace.csv").read_text()
    assert len(trace.splitlines()) == 1 + blob["overflow_step"] + 1


def test_probe_seed_from_config_or_flag_reaches_the_run(tmp_path):
    chain = {"q": 8, "noise_std": 0.01, "horizon": 300, "param_seed": 0,
             "weight_scale": 0.3, "out_scale": 1.5, "target_gate_bound": 0.9,
             "positive_feedback": True}
    runs = {"config": (write_config(tmp_path, "a.json",
                                    probe={**chain, "seed": 9}), []),
            "flag": (write_config(tmp_path, "b.json", probe=chain),
                     ["--seed", "9"]),
            "unseeded": (write_config(tmp_path, "b.json", probe=chain), [])}
    traces = {}
    for name, (cfg, flag) in runs.items():
        out = tmp_path / name / "probe"
        assert main(["probe", "--config", cfg, "--force", "--output-dir",
                     str(tmp_path / name), *flag]) == EXIT_OK
        info = json.loads((out / "run_info.json").read_text())
        resolved = json.loads((out / "resolved_config.json").read_text())
        seed = 0 if name == "unseeded" else 9
        assert info["seed"] == resolved["probe"]["seed"] == seed, name
        traces[name] = (out / "trace.csv").read_bytes()
    assert traces["config"] == traces["flag"] != traces["unseeded"]


def test_probe_too_short_for_the_decay_fit_exits_data(tmp_path, capsys):
    # horizon 15 gives max_lag 1: one lag cannot fit a decay rate
    cfg = load_run_config(str(CONFIGS / "probe_contraction.json"), {})
    cfg["probe"]["horizon"] = 15
    path = tmp_path / "short.json"
    path.write_text(json.dumps(cfg))
    assert run(tmp_path, "probe", "--config", str(path)) == EXIT_DATA
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: "), lines
    assert not (tmp_path / "runs" / "probe" / "probe.json").exists()


def test_probe_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, probe={"q": 8, "temperature": 1.0})
    assert run(tmp_path, "probe", "--config", cfg) == EXIT_CONFIG


# -- sweeps and ablation ----------------------------------------------------

def test_sweep_patch_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = run(tmp_path, "sweep-patch", "--config", cfg,
               "--sizes", "4", "8", "4")
    assert code == EXIT_OK
    assert "duplicate patch size 4" in capsys.readouterr().err
    lines = (tmp_path / "runs" / "sweep-patch" / "sweep_patch.csv") \
        .read_text().strip().splitlines()
    assert lines[0] == "patch_size,test_mse,test_mae"
    assert len(lines) == 3
    assert all(float(line.split(",")[1]) > 0 for line in lines[1:])


def test_sweep_patch_rejects_oversized(tmp_path):
    cfg = write_config(tmp_path)
    assert run(tmp_path, "sweep-patch", "--config", cfg,
               "--sizes", "32") == EXIT_CONFIG


def test_sweep_lookback_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(tmp_path, "sweep-lookback", "--config", cfg,
               "--sizes", "8", "8", "16") == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: duplicate lookback 8 ignored"]
    lines = (tmp_path / "runs" / "sweep-lookback" / "sweep_lookback.csv") \
        .read_text().strip().splitlines()
    assert lines[0] == "lookback,test_mse,test_mae"
    assert [line.split(",")[0] for line in lines[1:]] == ["8", "16"]


@pytest.mark.parametrize("axes", [["memory_mixing"],
                                  ["memory_mixing", "memory_mixing"]],
                         ids=["once", "repeated"])
def test_ablate_memory_mixing(tmp_path, capsys, axes):
    cfg = write_config(tmp_path)
    assert run(tmp_path, "ablate", "--config", cfg, "--axes", *axes) == EXIT_OK
    lines = (tmp_path / "runs" / "ablate" / "ablation.csv") \
        .read_text().strip().splitlines()
    assert lines[0] == "variant,train_mse,val_mse,test_mse"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "memory_mixing=True", "memory_mixing=False"]
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning: duplicate variant ")]
    assert len(warnings) == 2 * (len(axes) - 1)


def test_ablate_two_axes_product(tmp_path):
    cfg = write_config(tmp_path)
    assert run(tmp_path, "ablate", "--config", cfg,
               "--axes", "memory_mixing", "stabilized") == EXIT_OK
    lines = (tmp_path / "runs" / "ablate" / "ablation.csv") \
        .read_text().strip().splitlines()
    assert len(lines) == 5


# -- gradcheck --------------------------------------------------------------

def test_gradcheck_command(tmp_path, capsys):
    assert run(tmp_path, "gradcheck") == EXIT_OK
    assert "max relative error" in capsys.readouterr().out


# -- the input-file contract ------------------------------------------------

#: the last stderr line's prefix of each error exit a damaged input file
#: may end in; never exit 1, a gradcheck failure or an uncaught exception
ERROR_LINES = {EXIT_CONFIG: "config error: ", EXIT_DATA: "data error: ",
               cli.EXIT_DIVERGED: "numerical divergence: "}

#: one number token of a JSON or CSV file
NUMBER = r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"

#: replacements of a number: no array of their size can be allocated, so an
#: accepted one fails early instead of filling the machine's memory
HUGE = [b"1e400", b"-1e400", b"1e308", b"-1.7e308", str(2**63).encode(),
        b"1" + b"0" * 400, b"-1" + b"0" * 400]

#: bytes that are not UTF-8: a stray continuation byte, a lone lead byte,
#: an encoded surrogate, bytes UTF-8 never uses
NOT_UTF8 = [b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xff", b"\xfe\xff"]

MUTATIONS = ["truncate", "flip", "not_utf8", "nest", "huge"]


@st.composite
def mutated(draw, text: bytes, mutation: str) -> bytes:
    """text with one mutation: cut short, 1 to 3 bytes XORed, bytes that
    are not UTF-8 inserted, a number wrapped in up to 100,000 lists, or
    a number replaced by a huge one."""
    if mutation == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if mutation == "flip":
        out = bytearray(text)
        for _ in range(draw(st.integers(1, 3))):
            out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    if mutation == "not_utf8":
        k = draw(st.integers(0, len(text)))
        return text[:k] + draw(st.sampled_from(NOT_UTF8)) + text[k:]
    numbers = list(re.finditer(NUMBER.encode(), text))
    match = draw(st.sampled_from(numbers))
    if mutation == "nest":
        depth = draw(st.sampled_from([1, 100, 5_000, 100_000]))
        new = b"[" * depth + match.group() + b"]" * depth
    else:
        new = draw(st.sampled_from(HUGE))
    return text[:match.start()] + new + text[match.end():]


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """{file: (bytes, argv builder)}: the shipped sinusoid_tiny config, a
    checkpoint it trained for one epoch, and a 2-channel CSV with two
    non-finite cells, each with the command that reads it. argv(path,
    tmp) runs that command on the file at path, writing under tmp."""
    tmp = tmp_path_factory.mktemp("contract")
    shipped = str(CONFIGS / "sinusoid_tiny.json")
    one_epoch = json.loads(Path(shipped).read_text())
    one_epoch["train"]["max_epochs"] = 1
    (tmp / "one_epoch.json").write_text(json.dumps(one_epoch))
    assert run(tmp, "train", "--config", str(tmp / "one_epoch.json")) \
        == EXIT_OK
    checkpoint = str(tmp / "runs" / "train" / "checkpoint.json")
    rows = ["date,a,b"]
    for k in range(300):
        cells = [repr(math.sin(2 * math.pi * k / 24) + 0.1 * math.cos(0.37 * k)),
                 repr(math.cos(2 * math.pi * k / 48))]
        if k in (40, 133):
            cells[k % 2] = "nan"
        rows.append(f"t{k}," + ",".join(cells))

    def csv_argv(path, out):
        cfg = write_config(out, model={**TINY_MODEL, "n_channels": 2},
                           data={"source": "csv", "path": path})
        return ["train", "--config", cfg]
    return {
        "config": (Path(shipped).read_bytes(), lambda path, out: [
            "eval", "--config", path, "--checkpoint", checkpoint]),
        "checkpoint": (Path(checkpoint).read_bytes(), lambda path, out: [
            "eval", "--config", shipped, "--checkpoint", path]),
        "csv": ("\n".join(rows).encode() + b"\n", csv_argv),
    }


@pytest.mark.parametrize("file, mutation", [
    (file, mutation) for file in ("config", "checkpoint", "csv")
    for mutation in MUTATIONS if (file, mutation) != ("csv", "nest")])
@settings(max_examples=8)
@given(data=st.data())
def test_a_mutated_input_file_exits_with_a_documented_line(contract_inputs,
                                                          file, mutation,
                                                          data):
    # whatever a damaged file holds, the run ends in 0, 2, 3 or 4: an error
    # is one documented last line after any warnings, never a traceback
    # (exit 1), and a config error leaves no run directory
    text, argv = contract_inputs[file]
    bad = data.draw(mutated(text, mutation))
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        path = Path(tmp) / f"mutated.{'csv' if file == 'csv' else 'json'}"
        path.write_bytes(bad)
        code = main(argv(str(path), Path(tmp)) + [
            "--output-dir", str(Path(tmp) / "runs"), "--force"])
        left = (Path(tmp) / "runs").exists()
    lines = err.getvalue().splitlines()
    assert code in (EXIT_OK, *ERROR_LINES), (code, lines)
    if code != EXIT_OK:
        assert lines and lines[-1].startswith(ERROR_LINES[code]), lines
        lines = lines[:-1]
    assert all(line.startswith("warning: ") for line in lines), lines
    if code == EXIT_CONFIG:
        assert not left
