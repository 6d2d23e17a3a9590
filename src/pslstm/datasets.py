"""Dataset pipeline: CSV ingestion, chronological splitting, per-channel
standardization from train statistics, sliding-window samples, and
synthetic series generators for property tests.

Split convention (the common long-horizon benchmark one): rows are split
chronologically; a window's history x may reach back into the previous
split, but its target y always lies fully inside its own split.
"""

from __future__ import annotations

import csv
import hashlib
import math
import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .tensorops import DataError, Rng, check_fields

#: name -> (train/val/test ratios, expected channel count)
DATASET_PRESETS = {
    "weather": ((0.7, 0.1, 0.2), 21),
    "electricity": ((0.7, 0.1, 0.2), 321),
    "solar": ((0.7, 0.1, 0.2), 137),
    "ettm1": ((0.6, 0.2, 0.2), 7),
    "pems03": ((0.7, 0.1, 0.2), 358),
}

DEFAULT_RATIOS = (0.7, 0.1, 0.2)


@dataclass
class CsvSchema:
    has_date_column: bool = True
    delimiter: str = ","
    has_header: bool = True

    def __post_init__(self):
        check_fields(self)


@dataclass
class RawSeries:
    name: str
    values: np.ndarray              # (total_len, M)
    timestamps: list | None = None
    n_dropped_rows: int = 0

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.values.shape[0]


def load_csv(path, schema: CsvSchema | None = None, name: str | None = None) -> RawSeries:
    """Read a delimited numeric matrix; the date column (if declared) is
    kept as timestamps. Rows with any unparseable or non-finite cell are
    dropped and the drop count reported on the result."""
    schema = schema or CsvSchema()
    rows: list[list[float]] = []
    stamps: list[str] = []
    dropped = 0
    width = None
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise OSError(f"cannot read dataset file {path}: {exc}") from exc
    try:
        with fh:
            reader = csv.reader(fh, delimiter=schema.delimiter)
            if schema.has_header:
                next(reader, None)
            for raw in reader:
                if not raw:
                    continue
                if width is None:
                    width = len(raw)
                if len(raw) != width:
                    raise DataError(f"{path}: ragged row with {len(raw)} "
                                    f"cells, expected {width}")
                cells = raw[1:] if schema.has_date_column else raw
                try:
                    row = [float(c) for c in cells]
                except ValueError:
                    row = None
                # float() also parses nan and inf, which no statistic survives
                if row is None or not all(map(math.isfinite, row)):
                    dropped += 1
                    continue
                rows.append(row)
                if schema.has_date_column:
                    stamps.append(raw[0])
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no usable numeric rows "
                        f"({dropped} unparseable or non-finite)")
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} unparseable or "
                      f"non-finite rows")
    return RawSeries(name=name or str(path), values=np.array(rows, dtype=np.float64),
                     timestamps=stamps if schema.has_date_column else None,
                     n_dropped_rows=dropped)


@dataclass
class WindowedDataset:
    """Sliding-window samples over a standardized series.

    values holds the full standardized series; each split is a list of
    window start indices s with x = values[s : s+L] and y the following
    T rows.
    """

    values: np.ndarray
    lookback: int
    horizon: int
    starts: dict[str, np.ndarray]
    norm_mean: np.ndarray
    norm_std: np.ndarray
    name: str = ""

    def n_windows(self, split: str) -> int:
        return len(self.starts[split])

    def window(self, split: str, i: int) -> tuple[np.ndarray, np.ndarray]:
        s = self.starts[split][i]
        L, T = self.lookback, self.horizon
        return self.values[s:s + L], self.values[s + L:s + L + T]

    def batch(self, split: str, indices) -> tuple[np.ndarray, np.ndarray]:
        """Windows (B, L, M) and targets (B, T, M) of the indexed windows."""
        s = self.starts[split][indices][:, None]
        L, T = self.lookback, self.horizon
        # two gathers, not slices of one, so both arrays are C-contiguous
        return self.values[s + np.arange(L)], self.values[s + L + np.arange(T)]

    def train_channel_mean(self) -> np.ndarray:
        rows = self.starts["train"]
        hi = rows[-1] + self.lookback + self.horizon if len(rows) else 0
        return self.values[:hi].mean(axis=0)

    def digest(self) -> dict:
        """Reproducibility fingerprint: identical inputs => identical digest."""
        h = hashlib.sha256(np.ascontiguousarray(self.values).tobytes())
        return {
            "name": self.name,
            "lookback": self.lookback,
            "horizon": self.horizon,
            "n_channels": int(self.values.shape[1]),
            "windows": {k: int(len(v)) for k, v in self.starts.items()},
            "norm_mean": [repr(float(v)) for v in self.norm_mean],
            "norm_std": [repr(float(v)) for v in self.norm_std],
            "values_sha256": h.hexdigest(),
        }


def split_and_standardize(raw: RawSeries, lookback: int, horizon: int,
                          ratios: tuple[float, float, float] = DEFAULT_RATIOS,
                          preset: str | None = None,
                          stride: int = 1) -> WindowedDataset:
    """Chronological split, z-score from train statistics, dense windows.

    With a preset name the preset's ratios apply and the channel count is
    checked (warning only; file variants circulate).
    """
    if preset is not None:
        preset_ratios, expect_m = DATASET_PRESETS[preset]
        ratios = preset_ratios
        if raw.n_channels != expect_m:
            warnings.warn(f"{preset}: expected {expect_m} channels, "
                          f"file has {raw.n_channels}")
    n = len(raw)
    n_train = int(n * ratios[0])
    n_test = int(n * ratios[2])
    n_val = n - n_train - n_test
    L, T = lookback, horizon
    if n_train < L + T:
        raise DataError(f"series too short: {n} rows for L={L}, T={T} "
                        f"with ratios {ratios}")

    train_rows = raw.values[:n_train]
    # finite cells can still be too large to standardize
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train_rows.mean(axis=0)
        std = train_rows.std(axis=0)
        constant = std == 0.0
        std = np.where(constant, 1.0, std)
        values = (raw.values - mean) / std
    if not (np.all(np.isfinite(std)) and np.all(np.isfinite(values))):
        raise DataError("values too large to standardize: the train "
                        "statistics or the scaled series overflow")
    if np.any(constant):
        warnings.warn(f"{int(constant.sum())} constant channels; std forced to 1")

    # Window starts per split: targets stay inside the split, history may
    # reach back into the previous split.
    borders = [(0, n_train), (n_train - L, n_train + n_val),
               (n_train + n_val - L, n)]
    starts = {}
    for split, (lo, hi) in zip(("train", "val", "test"), borders):
        last = hi - L - T
        starts[split] = np.arange(max(lo, 0), last + 1, stride, dtype=np.int64) \
            if last >= max(lo, 0) else np.empty(0, dtype=np.int64)
    return WindowedDataset(values=values, lookback=L, horizon=T, starts=starts,
                           norm_mean=mean, norm_std=std, name=raw.name)


#: synthetic kind -> {params key: default} of every key the kind reads
SYNTHETIC_PARAMS = {
    kind: {"length": 1000, "channels": 1, **keys} for kind, keys in {
        "constant": {"value": 0.0},
        "sinusoid": {"period": 24, "amplitude": 1.0, "noise_std": 0.0},
        "ar1": {"phi": 0.8, "allow_nonstationary": False, "noise_std": 1.0},
        "long_memory_arfima_like": {"n_components": 20, "noise_std": 1.0},
    }.items()}

SyntheticKind = Literal[tuple(SYNTHETIC_PARAMS)]


def make_synthetic(kind: str, params: dict, seed: int = 0) -> RawSeries:
    """Deterministic synthetic series for property tests and demos.

    kinds: constant, sinusoid, ar1, long_memory_arfima_like (a superposition
    of AR(1) processes with coefficients crowding 1, which mimics slowly
    decaying autocorrelation). An unknown kind is a DataError; a params key
    the kind does not read (SYNTHETIC_PARAMS) is a ValueError.
    """
    if kind not in SYNTHETIC_PARAMS:
        raise DataError(f"unknown synthetic kind {kind!r}")
    if unknown := params.keys() - SYNTHETIC_PARAMS[kind]:
        raise ValueError(f"unknown {kind} params: {sorted(unknown)}")
    p = {**SYNTHETIC_PARAMS[kind], **params}
    rng = Rng(seed)
    length = int(p["length"])
    channels = int(p["channels"])
    if kind == "constant":
        values = np.full((length, channels), float(p["value"]))
    elif kind == "sinusoid":
        period = float(p["period"])
        amp = float(p["amplitude"])
        noise = float(p["noise_std"])
        phases = np.arange(channels) * 2.0 * np.pi / max(channels, 1)
        t = np.arange(length)[:, None]
        values = amp * np.sin(2.0 * np.pi * t / period + phases[None, :])
        if noise > 0:
            values = values + rng.normal(values.shape, 0.0, noise)
    elif kind == "ar1":
        phi = float(p["phi"])
        if abs(phi) >= 1.0 and not p["allow_nonstationary"]:
            raise DataError(f"ar1 with |phi|={abs(phi)} >= 1 is non-stationary")
        noise = float(p["noise_std"])
        eps = rng.normal((length, channels), 0.0, noise)
        values = np.empty((length, channels))
        prev = np.zeros(channels)
        for t in range(length):
            prev = phi * prev + eps[t]
            values[t] = prev
    else:  # long_memory_arfima_like
        n_comp = int(p["n_components"])
        noise = float(p["noise_std"])
        phis = 1.0 - np.logspace(-0.3, -2.5, n_comp)
        values = np.zeros((length, channels))
        for phi in phis:
            eps = rng.normal((length, channels), 0.0, noise)
            prev = np.zeros(channels)
            comp = np.empty((length, channels))
            for t in range(length):
                prev = phi * prev + eps[t]
                comp[t] = prev
            values += comp * (1.0 - phi)
    return RawSeries(name=f"synthetic:{kind}", values=values)
