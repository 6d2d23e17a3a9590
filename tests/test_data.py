"""Tests for CSV ingestion, splitting/standardization, and the synthetic
series generators."""

import warnings

import numpy as np
import pytest

from pslstm.datasets import (DATASET_PRESETS, DataConfig, RawSeries, load_csv,
                             make_synthetic, split_and_standardize)
from pslstm.tensorops import DataError


def write_csv(path, text):
    path.write_text(text)
    return path


def read(path, **fields):
    """load_csv of the csv data section at path with the given fields."""
    return load_csv(DataConfig(source="csv", path=str(path), **fields))


# -- load_csv ---------------------------------------------------------------

def test_load_csv_toy_file(tmp_path):
    p = write_csv(tmp_path / "toy.csv",
                  "date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,3.0,4.0\n"
                  "2020-01-03,5.0,6.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no row dropped
        raw = read(p)
    assert raw.values.shape == (3, 2)
    assert np.array_equal(raw.values, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_drops_unparseable_row(tmp_path):
    p = write_csv(tmp_path / "bad.csv",
                  "date,a\n2020-01-01,1.0\n2020-01-02,oops\n2020-01-03,3.0\n")
    with pytest.warns(UserWarning, match="dropped 1 "):
        raw = read(p)
    assert np.array_equal(raw.values, [[1], [3]])


def test_load_csv_drops_non_finite_row(tmp_path):
    p = write_csv(tmp_path / "nan.csv",
                  "date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,nan,4.0\n"
                  "2020-01-03,5.0,6.0\n")
    with pytest.warns(UserWarning, match="dropped 1 "):
        raw = read(p)
    assert np.array_equal(raw.values, [[1, 2], [5, 6]])


def test_load_csv_ragged_row_rejected(tmp_path):
    p = write_csv(tmp_path / "ragged.csv", "date,a,b\nx,1,2\ny,1\n")
    with pytest.raises(ValueError, match="ragged"):
        read(p)


def test_load_csv_stops_at_max_rows(tmp_path):
    # the drop before the cut is counted; the drop and the ragged row after
    # it are never parsed
    p = write_csv(tmp_path / "cut.csv",
                  "date,a,b\nt0,1,2\nt1,oops,3\nt2,4,5\nt3,6,7\n"
                  "t4,nan,8\nt5,1\nt6,9,10\n")
    with pytest.warns(UserWarning, match="dropped 1 ") as caught:
        raw = read(p, max_rows=3)
    assert len(caught) == 1
    assert np.array_equal(raw.values, [[1, 2], [4, 5], [6, 7]])


def test_load_csv_does_not_decode_past_max_rows(tmp_path):
    # the bad byte lies within the first 8 KB: a text handle's read-ahead
    # would decode it while parsing the first rows
    p = tmp_path / "tail.csv"
    p.write_bytes(b"date,v\n"
                  + b"".join(b"t%d,%d.5\n" % (k, k) for k in range(200))
                  + b"t_bad,\xff\n")
    assert np.array_equal(read(p, max_rows=10).values[:, 0],
                          np.arange(10) + 0.5)
    with pytest.raises(DataError, match="can't decode byte 0xff"):
        read(p)


def test_load_csv_undecodable_byte_before_the_cut_is_a_data_error(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_bytes(b"date,v\nt0,1.5\nt1,\xff\nt2,3.0\n")
    with pytest.raises(DataError, match="unreadable CSV"):
        read(p, max_rows=10)


@pytest.mark.parametrize("end", [b"\r\n", b"\r"])
def test_load_csv_reads_crlf_and_cr_line_ends(tmp_path, end):
    p = tmp_path / "ends.csv"
    p.write_bytes(end.join([b"date,a,b", b"t0,1,2", b"t1,3,4", b"t2,5,6"])
                  + end)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no row dropped
        raw = read(p, max_rows=2)
    assert np.array_equal(raw.values, [[1, 2], [3, 4]])


def test_load_csv_no_usable_rows(tmp_path):
    p = write_csv(tmp_path / "empty.csv", "date,a\n")
    with pytest.raises(ValueError):
        read(p)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(OSError, match="nope.csv"):
        read(tmp_path / "nope.csv")


def test_load_csv_without_date_column(tmp_path):
    p = write_csv(tmp_path / "plain.csv", "a,b\n1,2\n3,4\n")
    raw = read(p, has_date_column=False)
    assert np.array_equal(raw.values, [[1, 2], [3, 4]])


@pytest.mark.parametrize("fields, match", [
    ({"delimiter": ";;"}, "delimiter"),
    ({"path": None}, "path"),
    ({"path": ""}, "path"),
], ids=["two_char_delimiter", "no_path", "empty_path"])
def test_csv_data_section_rejected_before_reading(fields, match):
    with pytest.raises(ValueError, match=match):
        DataConfig(**{"source": "csv", "path": "x.csv", **fields})


def test_load_csv_ettm1_shaped_header(tmp_path):
    header = "date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT"
    rows = "\n".join(f"t{i}," + ",".join(str(i + j) for j in range(7))
                     for i in range(5))
    p = write_csv(tmp_path / "ettm1.csv", header + "\n" + rows + "\n")
    raw = read(p)
    assert raw.n_channels == 7
    assert DATASET_PRESETS["ettm1"][1] == 7


# -- split_and_standardize --------------------------------------------------

def test_split_constant_channel_fallback():
    values = np.ones((400, 2))
    values[:, 1] = np.sin(np.arange(400))
    raw = RawSeries(values=values)
    with pytest.warns(UserWarning, match="constant"):
        ds = split_and_standardize(raw, lookback=16, horizon=4)
    assert np.all(ds.values[:, 0] == 0.0)
    assert ds.norm_std[0] == 1.0


def test_split_train_stats_are_zero_one():
    raw = make_synthetic("ar1", {"length": 2000, "phi": 0.5, "channels": 3},
                         seed=1)
    ds = split_and_standardize(raw, lookback=16, horizon=4)
    n_train = int(2000 * 0.7)
    train_rows = ds.values[:n_train]
    assert np.max(np.abs(train_rows.mean(axis=0))) < 1e-10
    assert np.max(np.abs(train_rows.std(axis=0) - 1.0)) < 1e-10


def test_split_window_counts_match_enumeration():
    # len=1000, L=96, T=24, ratios 0.7/0.1/0.2: brute-force enumerate every
    # start whose target lies fully inside its split
    n, L, T = 1000, 96, 24
    raw = make_synthetic("ar1", {"length": n}, seed=0)
    ds = split_and_standardize(raw, lookback=L, horizon=T)
    n_train, n_test = int(n * 0.7), int(n * 0.2)
    n_val = n - n_train - n_test
    expect = {
        "train": [s for s in range(n) if s + L + T <= n_train],
        "val": [s for s in range(n) if s >= n_train - L
                and s + L + T <= n_train + n_val],
        "test": [s for s in range(n) if s >= n_train + n_val - L
                 and s + L + T <= n],
    }
    for split in ("train", "val", "test"):
        assert ds.starts[split].tolist() == expect[split]


def test_split_ett_preset_ratios():
    raw = make_synthetic("ar1", {"length": 1000, "channels": 7}, seed=0)
    ds = split_and_standardize(raw, lookback=32, horizon=8, preset="ettm1")
    # ETT convention: 0.6 / 0.2 / 0.2
    assert ds.starts["train"][-1] + 32 + 8 <= 600
    assert ds.starts["test"][0] == 800 - 32


def test_split_preset_channel_count_warns_not_fails():
    raw = make_synthetic("ar1", {"length": 800, "channels": 3}, seed=0)
    with pytest.warns(UserWarning, match="channels"):
        split_and_standardize(raw, lookback=16, horizon=4, preset="weather")


def test_split_too_short_series():
    raw = make_synthetic("ar1", {"length": 50}, seed=0)
    with pytest.raises(ValueError, match="too short"):
        split_and_standardize(raw, lookback=96, horizon=24)


def test_no_leakage_into_normalization_stats():
    # stats recomputed from train rows only must match the stored stats;
    # including val rows must move them
    raw = make_synthetic("ar1", {"length": 1000, "phi": 0.9}, seed=5)
    ds = split_and_standardize(raw, lookback=16, horizon=4)
    n_train = 700
    assert np.allclose(ds.norm_mean, raw.values[:n_train].mean(axis=0))
    assert not np.allclose(ds.norm_mean, raw.values[:n_train + 100].mean(axis=0))


def test_window_alignment():
    raw = make_synthetic("ar1", {"length": 500}, seed=2)
    ds = split_and_standardize(raw, lookback=16, horizon=4)
    for split in ("train", "val", "test"):
        for i in (0, ds.n_windows(split) - 1):
            s = ds.starts[split][i]
            x, y = ds.window(split, i)
            assert np.array_equal(y[0], ds.values[s + 16])
            assert x.shape == (16, raw.n_channels)
            assert y.shape == (4, raw.n_channels)


def test_split_and_standardize_deterministic():
    raw = make_synthetic("sinusoid", {"length": 600, "noise_std": 0.2}, seed=3)
    a = split_and_standardize(raw, lookback=16, horizon=4)
    raw2 = make_synthetic("sinusoid", {"length": 600, "noise_std": 0.2}, seed=3)
    b = split_and_standardize(raw2, lookback=16, horizon=4)
    for name in ("values", "norm_mean", "norm_std"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for split in ("train", "val", "test"):
        assert np.array_equal(a.starts[split], b.starts[split])


def test_batch_stacks_windows():
    raw = make_synthetic("ar1", {"length": 500, "channels": 2}, seed=0)
    ds = split_and_standardize(raw, lookback=16, horizon=4)
    x, y = ds.batch("train", [0, 5, 9])
    assert x.shape == (3, 16, 2)
    assert y.shape == (3, 4, 2)
    assert np.array_equal(x[1], ds.window("train", 5)[0])


# -- synthetic generators ---------------------------------------------------

def test_synthetic_constant():
    raw = make_synthetic("constant", {"length": 100, "value": 3.0}, seed=0)
    assert np.all(raw.values == 3.0)


def test_synthetic_noiseless_sinusoid_exact():
    raw = make_synthetic("sinusoid", {"length": 48, "period": 24,
                                      "amplitude": 1.0, "noise_std": 0.0})
    t = np.arange(48)
    assert np.allclose(raw.values[:, 0], np.sin(2 * np.pi * t / 24))


def test_synthetic_seed_determinism():
    a = make_synthetic("ar1", {"length": 200}, seed=9).values
    b = make_synthetic("ar1", {"length": 200}, seed=9).values
    c = make_synthetic("ar1", {"length": 200}, seed=10).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_synthetic_ar1_lag1_autocorrelation():
    raw = make_synthetic("ar1", {"length": 100_000, "phi": 0.8}, seed=4)
    x = raw.values[:, 0]
    xc = x - x.mean()
    rho1 = np.dot(xc[:-1], xc[1:]) / np.dot(xc, xc)
    assert abs(rho1 - 0.8) < 0.02


def test_synthetic_ar1_nonstationary_rejected():
    with pytest.raises(ValueError):
        make_synthetic("ar1", {"length": 100, "phi": 1.0})
    # explicit override allowed
    raw = make_synthetic("ar1", {"length": 100, "phi": 1.0,
                                 "allow_nonstationary": True}, seed=0)
    assert raw.values.shape == (100, 1)


def test_synthetic_long_memory_decays_slower_than_ar1():
    lm = make_synthetic("long_memory_arfima_like", {"length": 50_000}, seed=6)
    ar = make_synthetic("ar1", {"length": 50_000, "phi": 0.8}, seed=6)

    def acf(x, k):
        xc = x - x.mean()
        return np.dot(xc[:-k], xc[k:]) / np.dot(xc, xc)

    # by lag 50 the AR(1) correlation is gone (0.8^50 ~ 1e-5) while the
    # superposition still carries measurable correlation
    assert acf(lm.values[:, 0], 50) > 0.02
    assert abs(acf(ar.values[:, 0], 50)) < 0.02


def test_sinusoid_period_must_keep_the_phase_finite():
    # the phase 2*pi*t/period must stay finite up to t = length - 1
    with pytest.raises(ValueError, match="period"):
        make_synthetic("sinusoid", {"length": 400, "period": 5e-324})
    with np.errstate(all="raise"):
        raw = make_synthetic("sinusoid", {"length": 400, "period": 1e-300})
    assert np.all(np.isfinite(raw.values))
    # a one-step series has phase 0 at any positive period
    raw = make_synthetic("sinusoid", {"length": 1, "period": 5e-324})
    assert raw.values.shape == (1, 1)


def test_synthetic_unknown_kind():
    with pytest.raises(ValueError):
        make_synthetic("brownian", {})


@pytest.mark.parametrize("kind, params", [
    ("sinusoid", {"length": 100, "lenght": 400}),
    ("sinusoid", {"phi": 0.5}),
    ("ar1", {"period": 24}),
    ("constant", {"noise_std": 0.1}),
    ("long_memory_arfima_like", {"value": 1.0}),
])
def test_synthetic_rejects_params_its_kind_does_not_read(kind, params):
    with pytest.raises(ValueError, match="unknown"):
        make_synthetic(kind, params)
