"""Training engine: MSE objective, Adam with gradient clipping, shuffled
mini-batches, early stopping on validation loss, MSE/MAE evaluation.

Losses and metrics are computed on the dataset's standardized scale (the
usual benchmark convention); the model's own instance normalization is
internal and orthogonal to this.

An epoch's `train_mse` is the running training loss: the mean of the
epoch's training-mode batch losses, weighted by window count, taken under
dropout while the weights move. The split is not scored again in eval
mode; `evaluate(model, dataset, "train")` gives that figure.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Annotated, Callable

import numpy as np

from .datasets import WindowedDataset
from .model import Forecaster
from .tensorops import (_CHUNK, _EVAL_BUDGET, AtLeast0, AtLeast1, DataError,
                        Positive, Rng, ShapeError, check_fields, for_blocks,
                        split_point, write_csv)


@dataclass
class TrainConfig:
    learning_rate: Positive = 1e-3
    batch_size: AtLeast1 = 32
    max_epochs: AtLeast0 = 30
    patience: AtLeast1 = 5
    clip_norm: Positive = 1.0
    seed: AtLeast0 = 0
    beta1: Annotated[float, (">", 0), ("<", 1)] = 0.9
    beta2: Annotated[float, (">", 0), ("<", 1)] = 0.999
    eps_opt: Positive = 1e-8

    def __post_init__(self):
        check_fields(self)
        if not self.beta1 < self.beta2:
            raise ValueError("beta1 must be below beta2")


@dataclass
class Metrics:
    mse: float
    mae: float
    n_samples: int


@dataclass
class EpochRecord:
    """One epoch of `train`: `train_mse` is the window-weighted mean of the
    epoch's training-mode batch losses, `val_mse` the eval-mode MSE of the
    val split after the epoch."""
    epoch: int
    train_mse: float
    val_mse: float
    seconds: float


def mse_loss(yhat: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements and its gradient wrt yhat."""
    yhat = np.asarray(yhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if yhat.shape != y.shape:
        raise ShapeError(f"mse_loss: shape mismatch {yhat.shape} vs {y.shape}")
    diff = yhat - y
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


def _global_norm(grads: dict[str, np.ndarray]) -> float:
    """The global L2 norm: np.sum(g * g) per gradient, summed in dict order.
    Not finite if any entry is not finite, or if the sum overflows."""
    return np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def _clip_scale(norm: float, clip_norm: float) -> float | None:
    """The factor that brings a global norm down to clip_norm; None when it
    is already within it (a NaN norm gives NaN, an infinite one 0)."""
    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    return None if norm <= clip_norm else clip_norm / norm


def clip_gradients(grads: dict[str, np.ndarray],
                   clip_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients so the global L2 norm is at most clip_norm:
    grads itself when within it, else a scaled copy of every gradient.
    train uses adam_step(clip_norm=) instead, which applies the same scale
    without the copy."""
    scale = _clip_scale(_global_norm(grads), clip_norm)
    if scale is None:
        return grads
    return {name: g * scale for name, g in grads.items()}


class AdamState:
    """First/second moment accumulators and the chunk plan adam_step walks.

    m and v live in one (2, total) zero buffer, total the parameter count:
    m[name] and v[name] are the parameter's segment of its row, in dict
    order, in the parameter's shape and memory order. A parameter must be
    C- or F-contiguous, so that raveling it in that order is a view; any
    other raises ValueError naming it.

    The plan cuts the flat order into consecutive chunks of
    tensorops._CHUNK elements. A chunk lists one piece per parameter it
    overlaps (many small arrays, or the tail of one and the head of the
    next): the name, the slice of the raveled parameter, and the piece's
    views of the gradient and step scratch. The scratch (tmp, step,
    gradient) is three rows of at most _CHUNK, one set for the first
    tensorops.split_point(n) of the n chunks and, with two chunks or more,
    one for the rest: adam_step runs its chunks through
    tensorops.for_blocks, which may run the two halves at once on two
    CPUs, to the same bytes. So a step allocates nothing sized to the
    parameter count. Rebinding an entry of m or v detaches it from the
    plan.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        self.t = 0
        total = sum(p.size for p in params.values())
        m, v = np.zeros((2, total))
        self.m, self.v, self._layout, segments, lo = {}, {}, {}, {}, 0
        for name, p in params.items():
            if not (p.flags.c_contiguous or p.flags.f_contiguous):
                raise ValueError(f"AdamState: parameter {name} is neither C- "
                                 f"nor F-contiguous")
            order = "C" if p.flags.c_contiguous else "F"
            self._layout[name] = order, p.shape
            segments[name] = lo, lo + p.size
            self.m[name] = m[lo:lo + p.size].reshape(p.shape, order=order)
            self.v[name] = v[lo:lo + p.size].reshape(p.shape, order=order)
            lo += p.size
        starts = range(0, total, _CHUNK)
        # one scratch per half of the chunks, which for_blocks may run at once
        scratch = np.empty((min(len(starts), 2), 3, min(total, _CHUNK)))
        half = split_point(len(starts))
        self._plan = []     # per chunk: (m, v, tmp, step, gradient, pieces)
        for j, a in enumerate(starts):
            b = min(a + _CHUNK, total)
            tmp, step, grad = scratch[int(j >= half), :, :b - a]
            pieces = []
            for name, (lo, hi) in segments.items():
                s, e = max(lo, a), min(hi, b)
                if s < e:
                    pieces.append((name, slice(s - lo, e - lo),
                                   grad[s - a:e - a], step[s - a:e - a]))
            self._plan.append((m[a:b], v[a:b], tmp, step, grad, pieces))


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, config: TrainConfig,
              masks: dict | None = None, *,
              clip_norm: float | None = None) -> float:
    """One bias-corrected Adam update, in place; returns the global L2 norm
    of grads before any clipping.

    grads are not written, and are checked before anything is: the keys of
    params and grads must be those AdamState planned for (else ValueError
    naming the missing and the unknown ones), each parameter and gradient
    the shape AdamState saw (else ShapeError), and each parameter its
    memory order (else ValueError: raveling would copy it and lose its
    update). The norm is also the finiteness check: a finite norm
    means every entry is finite, and only a non-finite one scans the
    gradients, raising FloatingPointError naming the first array with a
    non-finite entry (a norm that merely overflowed passes). With
    clip_norm, a norm above it scales each gradient by clip_norm / norm
    into the plan's gradient scratch: the bytes of clip_gradients then an
    unclipped adam_step, without the scaled copy. masks, which perfbench
    passes as Forecaster.masks, must be None or empty: no entry is frozen.

    The update runs chunk by chunk over the plan in `state` (see
    AdamState), reading a chunk's gradient in place when nothing is
    clipped and the chunk lies inside one array; with two CPUs the two
    halves of the plan run at once (tensorops.for_blocks), while the norm
    stays one serial sum. Every operation is elementwise and done in the
    order of the whole-array update, so the results are bit-identical to
    it.
    """
    if masks:
        raise ValueError(f"adam_step freezes no entries, got masks for "
                         f"{sorted(masks)}")
    planned = state._layout.keys()
    for kind, d in (("parameter", params), ("gradient", grads)):
        if d.keys() != planned:
            raise ValueError(f"adam_step: no {kind} for "
                             f"{sorted(planned - d.keys())}, unknown "
                             f"{kind}s {sorted(d.keys() - planned)}")
    flat_p, flat_g = {}, {}
    for name, (order, shape) in state._layout.items():
        p, g = params[name], grads[name]
        if not p.shape == g.shape == shape:
            raise ShapeError(f"adam_step: {name} is planned as {shape}, the "
                             f"parameter is {p.shape}, its gradient {g.shape}")
        flat_p[name], flat_g[name] = p.ravel(order), g.ravel(order)
        if flat_p[name].base is None:
            raise ValueError(f"adam_step: parameter {name} is no longer "
                             f"{order}-contiguous, as AdamState planned")
    norm = _global_norm(grads)
    scale = None if clip_norm is None else _clip_scale(norm, clip_norm)
    if not np.isfinite(norm):
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient in {name}")
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    corr1 = 1.0 - b1 ** state.t
    corr2 = 1.0 - b2 ** state.t
    lr, eps = config.learning_rate, config.eps_opt

    def run(chunks: list) -> None:
        for m, v, tmp, step, gs, pieces in chunks:
            if scale is None and len(pieces) == 1:
                name, sl, _, _ = pieces[0]
                gs = flat_g[name][sl]
            else:
                for name, sl, g, _ in pieces:
                    if scale is None:
                        np.copyto(g, flat_g[name][sl])
                    else:
                        np.multiply(flat_g[name][sl], scale, out=g)
            m *= b1
            m += np.multiply(gs, 1.0 - b1, out=tmp)
            v *= b2
            np.multiply(gs, 1.0 - b2, out=tmp)
            tmp *= gs
            v += tmp
            np.divide(v, corr2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += eps
            np.divide(m, corr1, out=step)
            step *= lr
            step /= tmp
            for name, sl, _, s in pieces:
                flat_p[name][sl] -= s
    for_blocks(run, state._plan)
    return norm


def _batches(n: int, batch_size: int, rng: Rng):
    order = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield order[lo:lo + batch_size]


def train(model: Forecaster, dataset: WindowedDataset,
          config: TrainConfig) -> tuple[Forecaster, list[EpochRecord]]:
    """Train with early stopping; returns the best-validation-epoch model.

    A non-finite training loss stops training with one warning naming the
    epoch and whose parameters the model keeps: the best epoch's so far,
    or the initial ones when no epoch finished.
    """
    if dataset.n_windows("train") == 0 or dataset.n_windows("val") == 0:
        raise DataError("train requires non-empty train and val splits")
    opt = AdamState(model.params)
    history: list[EpochRecord] = []
    best_val, best_epoch = np.inf, None
    best_params = {name: arr.copy() for name, arr in model.params.items()}
    stale = 0
    n_train = dataset.n_windows("train")

    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        shuffle_rng = Rng(config.seed).spawn(1000 + epoch)
        drop_rng = Rng(config.seed).spawn(2000 + epoch)
        loss_sum = 0.0
        for idx in _batches(n_train, config.batch_size, shuffle_rng):
            x, y = dataset.batch("train", idx)
            yhat, tape = model.forward(x, training=True, dropout_rng=drop_rng)
            loss, grad = mse_loss(yhat, y)
            if not np.isfinite(loss):
                break
            loss_sum += loss * len(idx)
            grads = model.backward(tape, grad)
            adam_step(model.params, grads, opt, config,
                      clip_norm=config.clip_norm)
        if not np.isfinite(loss):
            kept = ("the initial parameters" if best_epoch is None
                    else f"the parameters of epoch {best_epoch}")
            warnings.warn(f"training loss not finite in epoch {epoch}; "
                          f"training stopped, keeping {kept}")
            break
        val_mse = evaluate(model, dataset, "val", config.batch_size).mse
        history.append(EpochRecord(epoch, loss_sum / n_train, val_mse,
                                   time.perf_counter() - t0))
        if val_mse < best_val:
            best_val, best_epoch = val_mse, epoch
            for name, arr in model.params.items():
                np.copyto(best_params[name], arr)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    for name, arr in model.params.items():
        np.copyto(arr, best_params[name])
    return model, history


def _score(dataset: WindowedDataset, split: str, batch_size: int,
           predict: Callable[[np.ndarray], np.ndarray],
           window_cost: int = 0) -> Metrics:
    """MSE/MAE of predict(x) against y over every window of the split.

    Each predict call covers k * batch_size windows (the last call may be
    shorter), k >= 1 the most batches whose gate elements, window_cost a
    window, fit tensorops._EVAL_BUDGET; a window_cost of 0 means one call
    per batch. Errors are still summed in float64 per batch_size slice of
    each call's output, in window order, so the metrics are the bytes of
    one call per batch wherever the forecasts keep theirs.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    n = dataset.n_windows(split)
    if n == 0:
        raise DataError(f"split {split!r} is empty")
    k = max(1, _EVAL_BUDGET // (window_cost * batch_size)) if window_cost else 1
    se, ae, count = 0.0, 0.0, 0
    for lo in range(0, n, k * batch_size):
        x, y = dataset.batch(split, range(lo, min(lo + k * batch_size, n)))
        diff = predict(x) - y
        for a in range(0, len(diff), batch_size):
            d = diff[a:a + batch_size]
            se += float(np.sum(d * d))
            ae += float(np.sum(np.abs(d)))
        count += y.size
    return Metrics(mse=se / count, mae=ae / count, n_samples=n)


def evaluate(model: Forecaster, dataset: WindowedDataset,
             split: str = "test", batch_size: int = 64) -> Metrics:
    """MSE/MAE over every window of the split, on the standardized scale.

    Scores model.predict, the tape-free path, in calls of k * batch_size
    windows, k from model.gate_elements_per_window (see _score), so the
    sinusoid_tiny config scores 3 batches a call while a criterion-6 mixed
    or Weather-shaped model makes one call per batch. Per call and block
    predict allocates the cell's (S, B, 4d) gate buffer, one (B, d) buffer
    each for c and n, and a time-major h (the layer norm's output
    overwrites the block input). It writes no c or n tape and no
    layer-norm cache, copies no W, R or h, and predicts the bytes of
    model.forward(x)[0]. batch_size must be at least 1."""
    return _score(dataset, split, batch_size, model.predict,
                  model.gate_elements_per_window)


def write_history_csv(history: list[EpochRecord], path) -> None:
    write_csv(path, ["epoch", "train_mse", "val_mse", "seconds"],
              ([rec.epoch, repr(rec.train_mse), repr(rec.val_mse),
                f"{rec.seconds:.3f}"] for rec in history))


# -- naive reference forecasters ------------------------------------------

def persistence_metrics(dataset: WindowedDataset, split: str = "test") -> Metrics:
    """Repeat the last observed value across the horizon."""
    return _score(dataset, split, 256, lambda x: x[:, -1:, :])


def train_mean_metrics(dataset: WindowedDataset, split: str = "test") -> Metrics:
    """Predict the per-channel mean of the train split (zero after z-scoring
    unless channels were constant)."""
    mean = dataset.train_channel_mean()
    return _score(dataset, split, 256, lambda x: mean)
