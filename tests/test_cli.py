"""End-to-end tests of the command-line front end and its exit codes."""

import json
import shutil
from pathlib import Path

import pytest

from pslstm.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_OK, load_run_config,
                        main)
from pslstm.model import Forecaster
from pslstm.tensorops import ShapeError

DATA = Path(__file__).resolve().parent / "data"

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
    ("probe", {"probe": {"q": "eight"}}),
    ("probe", {"probe": {"horizon": 2.5}}),
    ("probe", {"probe": {"q": 0}}),
    ("probe", {"probe": {"p": True}}),
    ("probe", {"probe": {"weight_scale": "big"}}),
    ("probe", {"probe": {"noise_std": float("nan")}}),
    ("probe", {"probe": {"target_gate_bound": -1.0}}),
], ids=["top_level_number", "section_number", "data_list", "stride_word",
        "stride_zero", "data_seed_word", "train_seed_word", "params_number",
        "length_word", "probe_q_word", "probe_horizon_float", "probe_q_zero",
        "probe_p_bool", "probe_scale_word", "probe_noise_nan",
        "probe_negative_gate_bound"])
def test_malformed_config_value_exits_config(tmp_path, capsys, command,
                                             payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert run(tmp_path, command, "--config", str(path)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1


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


def test_eval_version_1_checkpoint_missing_gate_exits_data(tmp_path, capsys):
    cfg = write_config(tmp_path, model={**TINY_MODEL, "n_channels": 2},
                       data={"source": "synthetic",
                             "params": {"length": 400, "period": 24,
                                        "channels": 2}})
    ckpt = tmp_path / "v1.json"
    shutil.copy(DATA / "v1_heads2.json", ckpt)
    assert run(tmp_path, "eval", "--config", cfg,
               "--checkpoint", str(ckpt)) == EXIT_OK
    blob = json.loads(ckpt.read_text())
    del blob["params"]["block0.R_o"]
    ckpt.write_text(json.dumps(blob))
    assert run(tmp_path, "eval", "--config", cfg,
               "--checkpoint", str(ckpt)) == EXIT_DATA
    assert "block0.R_o" in capsys.readouterr().err


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


def test_sweep_lookback_table(tmp_path):
    cfg = write_config(tmp_path)
    assert run(tmp_path, "sweep-lookback", "--config", cfg,
               "--sizes", "8", "16") == EXIT_OK
    lines = (tmp_path / "runs" / "sweep-lookback" / "sweep_lookback.csv") \
        .read_text().strip().splitlines()
    assert lines[0] == "lookback,test_mse,test_mae"
    assert len(lines) == 3


def test_ablate_memory_mixing(tmp_path):
    cfg = write_config(tmp_path)
    assert run(tmp_path, "ablate", "--config", cfg,
               "--axes", "memory_mixing") == EXIT_OK
    lines = (tmp_path / "runs" / "ablate" / "ablation.csv") \
        .read_text().strip().splitlines()
    assert lines[0] == "variant,train_mse,val_mse,test_mse"
    assert len(lines) == 3
    assert lines[1].startswith("memory_mixing=")


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
