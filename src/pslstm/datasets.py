"""Dataset pipeline: the data config section, CSV ingestion, chronological
splitting, per-channel standardization from train statistics, sliding-window
samples, and synthetic series generators for property tests.

Split convention (the common long-horizon benchmark one): rows are split
chronologically; a window's history x may reach back into the previous
split, but its target y always lies fully inside its own split.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass, make_dataclass
from typing import Literal

import numpy as np

from .tensorops import (_MAX_VALUES, AtLeast0, AtLeast1, DataError,
                        NonNegative, Positive, Rng, check_fields, from_dict)

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
class DataConfig:
    """The data section: a synthetic series or a CSV file.

    A csv source reads path (required): has_date_column drops the first
    column, delimiter is one character, has_header skips the first line,
    and max_rows, if set, ends the read at that many usable rows. A
    synthetic source draws kind with params (None: those of length=4000,
    period=24, noise_std=0.1 that kind reads, built here with the kind's
    params class) from seed; a csv source leaves params unchecked.
    window_stride spaces the window starts; preset applies to csv only.
    """
    source: Literal["synthetic", "csv"] = "synthetic"
    window_stride: AtLeast1 = 1
    path: str | None = None
    preset: Literal[tuple(DATASET_PRESETS)] | None = None
    max_rows: AtLeast1 | None = None
    has_date_column: bool = True
    delimiter: str = ","
    has_header: bool = True
    kind: SyntheticKind = "sinusoid"
    params: dict | None = None
    seed: AtLeast0 = 0

    def __post_init__(self):
        check_fields(self)
        if self.params is None:
            self.params = {k: v for k, v in dict(length=4000, period=24,
                                                 noise_std=0.1).items()
                           if k in SYNTHETIC_PARAMS[self.kind]}
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter {self.delimiter!r} is not one character")
        if self.source == "csv" and not self.path:
            raise ValueError('a "csv" data source needs a path')
        if self.source == "synthetic":
            from_dict(_PARAMS_CLASSES[self.kind], self.params)


#: a carriage return that ends a line by itself (not part of \r\n)
_LONE_CR = re.compile(rb"(?<=\r)(?!\n)")


def _decoded_lines(fh):
    """The lines of the binary handle fh as UTF-8 text, each decoded only
    when it is reached. Lines end at LF, CR LF or a lone CR, as a text
    handle opened with newline="" splits them."""
    for raw in fh:
        for line in _LONE_CR.split(raw):
            if line:
                yield line.decode("utf-8")


def load_csv(config: DataConfig) -> np.ndarray:
    """The (rows, channels) float64 array of the delimited numeric matrix
    at config.path, read as the config's has_date_column, delimiter and
    has_header describe it, up to config.max_rows usable rows: no row after
    the last of them is parsed or decoded. Rows with any unparseable or
    non-finite cell are dropped with one warning that counts them. A file
    that cannot be opened is an OSError naming the path; a ragged row,
    bytes before the cut that are not UTF-8, or no usable row is a
    DataError."""
    path = config.path
    rows: list[list[float]] = []
    dropped = 0
    width = None
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise OSError(f"cannot read dataset file {path}: {exc}") from exc
    try:
        with fh:
            reader = csv.reader(_decoded_lines(fh),
                                delimiter=config.delimiter)
            if config.has_header:
                next(reader, None)
            for raw in reader:
                if not raw:
                    continue
                if width is None:
                    width = len(raw)
                if len(raw) != width:
                    raise DataError(f"{path}: ragged row with {len(raw)} "
                                    f"cells, expected {width}")
                cells = raw[1:] if config.has_date_column else raw
                try:
                    row = [float(c) for c in cells]
                except ValueError:
                    row = None
                # float() also parses nan and inf, which no statistic survives
                if row is None or not all(map(math.isfinite, row)):
                    dropped += 1
                    continue
                rows.append(row)
                if len(rows) == config.max_rows:
                    break
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no usable numeric rows "
                        f"({dropped} unparseable or non-finite)")
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} unparseable or "
                      f"non-finite rows")
    return np.array(rows, dtype=np.float64)


@dataclass
class WindowedDataset:
    """Sliding-window samples over a standardized series.

    values is the full standardized (rows, channels) series; each split is
    an array of window start indices s with x = values[s : s+L] and y the
    following T rows, which batch gathers.
    """

    values: np.ndarray
    lookback: int
    horizon: int
    starts: dict[str, np.ndarray]

    def n_windows(self, split: str) -> int:
        return len(self.starts[split])

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


def split_and_standardize(raw: np.ndarray, lookback: int, horizon: int,
                          preset: str | None = None,
                          stride: int = 1) -> WindowedDataset:
    """Chronological split, z-score from train statistics, dense windows,
    of the (rows, channels) series raw.

    The split ratios are DEFAULT_RATIOS, or the preset's with a preset
    name, which also checks the channel count (warning only; file variants
    circulate)."""
    ratios = DEFAULT_RATIOS
    if preset is not None:
        ratios, expect_m = DATASET_PRESETS[preset]
        if raw.shape[1] != expect_m:
            warnings.warn(f"{preset}: expected {expect_m} channels, "
                          f"file has {raw.shape[1]}")
    n = len(raw)
    n_train = int(n * ratios[0])
    n_test = int(n * ratios[2])
    n_val = n - n_train - n_test
    L, T = lookback, horizon
    if n_train < L + T:
        raise DataError(f"series too short: {n} rows for L={L}, T={T} "
                        f"with ratios {ratios}")

    train_rows = raw[:n_train]
    # finite cells can still be too large to standardize
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train_rows.mean(axis=0)
        std = train_rows.std(axis=0)
        constant = std == 0.0
        std = np.where(constant, 1.0, std)
        values = (raw - mean) / std
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
    return WindowedDataset(values=values, lookback=L, horizon=T, starts=starts)


#: synthetic kind -> {params key: default} of every key the kind reads; a
#: key's type is the type of its default, with the range of _PARAM_RANGES
SYNTHETIC_PARAMS = {
    kind: {"length": 1000, "channels": 1, **keys} for kind, keys in {
        "constant": {"value": 0.0},
        "sinusoid": {"period": 24.0, "amplitude": 1.0, "noise_std": 0.0},
        "ar1": {"phi": 0.8, "allow_nonstationary": False, "noise_std": 1.0},
        "long_memory_arfima_like": {"n_components": 20, "noise_std": 1.0},
    }.items()}

SyntheticKind = Literal[tuple(SYNTHETIC_PARAMS)]

#: params key -> its type with its range, for the keys that have one
_PARAM_RANGES = dict(length=AtLeast1, channels=AtLeast1, n_components=AtLeast1,
                     period=Positive, noise_std=NonNegative)


def _check_params(p) -> None:
    """check_fields on a kind's params p; then the series draws at most
    _MAX_VALUES values, and only then, so that no huge length reaches a
    float division, a period keeps 2*pi*(length - 1)/period finite."""
    check_fields(p)
    sizes = (p.length, p.channels, getattr(p, "n_components", 1))
    if math.prod(map(int, sizes)) > _MAX_VALUES:      # numpy ints can wrap
        raise ValueError(f"the synthetic series would draw more than "
                         f"{_MAX_VALUES:,} values")
    if hasattr(p, "period") and \
            not math.isfinite(2.0 * math.pi * (p.length - 1) / p.period):
        raise ValueError(f"period {float(p.period)!r} is too small for "
                         f"length {p.length}: 2*pi*(length - 1)/period "
                         f"overflows")


#: synthetic kind -> the dataclass of its params, so that from_dict and
#: _check_params check them as every config section is checked
_PARAMS_CLASSES = {
    kind: make_dataclass(f"{kind} params",
                         [(key, _PARAM_RANGES.get(key, type(v)), v)
                          for key, v in defaults.items()],
                         namespace={"__post_init__": _check_params})
    for kind, defaults in SYNTHETIC_PARAMS.items()}


def _ar1(phi: float, eps: np.ndarray) -> np.ndarray:
    """The AR(1) recursion x_t = phi x_{t-1} + eps_t from x_{-1} = 0, run
    down the rows of eps and written over them."""
    prev = np.zeros(eps.shape[1])
    for row in eps:
        row += phi * prev
        prev = row
    return eps


def make_synthetic(kind: str, params: dict, seed: int = 0) -> np.ndarray:
    """A deterministic synthetic (length, channels) float64 series for
    property tests and demos.

    kinds: constant, sinusoid, ar1, long_memory_arfima_like (a superposition
    of AR(1) processes with coefficients crowding 1, which mimics slowly
    decaying autocorrelation). An unknown kind is a DataError. params are
    built with the kind's params class, as in a DataConfig: a key the kind
    does not read, or a value not of its default's type (SYNTHETIC_PARAMS)
    or outside its range (_PARAM_RANGES), is a TypeError or ValueError, and
    so is a series past the value bound or a too small period
    (_check_params).
    """
    if kind not in SYNTHETIC_PARAMS:
        raise DataError(f"unknown synthetic kind {kind!r}")
    p = vars(from_dict(_PARAMS_CLASSES[kind], params))
    real = {key: float(p[key]) for key in
            ("value", "period", "amplitude", "phi", "noise_std") if key in p}
    noise = real.get("noise_std", 0.0)
    rng = Rng(seed)
    length = int(p["length"])
    channels = int(p["channels"])
    if kind == "constant":
        values = np.full((length, channels), real["value"])
    elif kind == "sinusoid":
        period, amp = real["period"], real["amplitude"]
        phases = np.arange(channels) * 2.0 * np.pi / channels
        t = np.arange(length)[:, None]
        values = amp * np.sin(2.0 * np.pi * t / period + phases[None, :])
        if noise > 0:
            values = values + rng.normal(values.shape, 0.0, noise)
    elif kind == "ar1":
        phi = real["phi"]
        if abs(phi) >= 1.0 and not p["allow_nonstationary"]:
            raise DataError(f"ar1 with |phi|={abs(phi)} >= 1 is non-stationary")
        values = _ar1(phi, rng.normal((length, channels), 0.0, noise))
    else:  # long_memory_arfima_like
        phis = 1.0 - np.logspace(-0.3, -2.5, int(p["n_components"]))
        values = np.zeros((length, channels))
        for phi in phis:
            values += _ar1(phi, rng.normal((length, channels), 0.0, noise)) \
                * (1.0 - phi)
    return values
