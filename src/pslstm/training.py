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

import csv
import time
import warnings
from dataclasses import dataclass
from typing import Annotated, Callable

import numpy as np

from .datasets import WindowedDataset
from .model import Forecaster
from .tensorops import (_CHUNK, _EVAL_BUDGET, AtLeast0, AtLeast1, DataError,
                        Positive, Rng, ShapeError, check_fields, row_slices)


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
    """First/second moment accumulators, one pair per parameter array, and
    the chunk plan adam_step walks.

    The plan is made once, here, over the parameters in dict order, with
    chunks of at most tensorops._CHUNK elements (the row-block bound the
    cell and the layer norm also use):

    - an array of at least _CHUNK elements, or one that is not
      C-contiguous, is split by tensorops.row_slices into row slices (a
      1-D array into element slices; a row wider than _CHUNK is a chunk of
      its own), each updated in place through views of the array, its m
      and its v;
    - consecutive smaller C-contiguous arrays are packed into shared
      chunks, in order, as many as fit. The m and v of a packed chunk are
      one flat buffer each, and each array's entry of m and v is its
      segment, in the array's shape. adam_step copies (or, under clipping,
      scales) the chunk's gradients into scratch and runs the update once
      over the whole chunk; each array then subtracts its segment of the
      step.

    Each chunk's scratch (tmp, step and the gathered or clipped gradient)
    is a view into one (3, n) buffer, n the largest chunk, so a step's
    update allocates nothing sized to the parameter count. m and v are
    updated in place through the plan; rebinding an entry of m or v
    detaches it from the plan.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        self.m, self.v = {}, {}
        self.t = 0
        # a name (an array split by rows) or a list of names (packed);
        # room: the elements the last packed list can still take
        groups, room = [], -1
        for name, p in params.items():
            if p.size >= _CHUNK or not p.flags.c_contiguous:
                groups.append(name)
                room = -1
            elif p.size <= room:
                groups[-1].append(name)
                room -= p.size
            else:
                groups.append([name])
                room = _CHUNK - p.size
        chunks = []     # (m, v, pieces), a piece (name, rows, segment)
        for group in groups:
            if isinstance(group, str):
                m = self.m[group] = np.zeros_like(params[group])
                v = self.v[group] = np.zeros_like(params[group])
                chunks += [(m[sl], v[sl], [(group, sl, None)])
                           for sl in row_slices(m.shape)]
                continue
            ends = np.cumsum([params[k].size for k in group]).tolist()
            m, v = np.zeros((2, ends[-1]))
            segments = [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]
            for name, seg in zip(group, segments):
                self.m[name] = m[seg].reshape(params[name].shape)
                self.v[name] = v[seg].reshape(params[name].shape)
            chunks.append((m, v, [(name, ..., seg)
                                  for name, seg in zip(group, segments)]))
        n = max((m.size for m, _, _ in chunks), default=1)
        scratch = np.empty((3, max(n, 1)))
        # per chunk: (m, v, tmp, step, gradient scratch, pieces), a packed
        # piece's segment replaced by its (gradient, step) scratch views
        self._plan = []
        for m, v, pieces in chunks:
            tmp, step, grad = (buf[:m.size].reshape(m.shape)
                               for buf in scratch)
            self._plan.append((m, v, tmp, step, grad, [
                (name, sl, seg if seg is None else
                 (grad[seg].reshape(self.m[name].shape),
                  step[seg].reshape(self.m[name].shape)))
                for name, sl, seg in pieces]))


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, config: TrainConfig,
              masks: dict | None = None, *,
              clip_norm: float | None = None) -> float:
    """One bias-corrected Adam update, in place; returns the global L2 norm
    of grads before any clipping.

    grads are not written. The norm is also the finiteness check, made
    before anything is written: a finite norm means every entry is
    finite, and only a non-finite one scans the gradients, raising
    FloatingPointError naming the first array with a non-finite entry (a
    norm that merely overflowed passes). With clip_norm, a norm above it
    scales each gradient by clip_norm / norm into the plan's gradient
    scratch: the bytes of clip_gradients then an unclipped adam_step,
    without the scaled copy. masks, which perfbench passes as
    Forecaster.masks, must be None or empty: no entry is frozen.

    The update runs chunk by chunk over the plan in `state` (see
    AdamState), each elementwise pass writing into the chunk's scratch
    views. Every operation is elementwise and done in the order of the
    whole-array update, so the results are bit-identical to it.
    """
    if masks:
        raise ValueError(f"adam_step freezes no entries, got masks for "
                         f"{sorted(masks)}")
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
    for m, v, tmp, step, gs, pieces in state._plan:
        for name, sl, views in pieces:
            g = grads[name][sl]
            if views is None:       # a row slice of one array, read in place
                gs = g if scale is None else np.multiply(g, scale, out=gs)
            elif scale is None:
                np.copyto(views[0], g)
            else:
                np.multiply(g, scale, out=views[0])
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
        for name, sl, views in pieces:
            p = params[name][sl]
            p -= step if views is None else views[1]
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_mse", "val_mse", "seconds"])
        for rec in history:
            writer.writerow([rec.epoch, repr(rec.train_mse),
                             repr(rec.val_mse), f"{rec.seconds:.3f}"])


# -- naive reference forecasters ------------------------------------------

def persistence_metrics(dataset: WindowedDataset, split: str = "test") -> Metrics:
    """Repeat the last observed value across the horizon."""
    return _score(dataset, split, 256, lambda x: x[:, -1:, :])


def train_mean_metrics(dataset: WindowedDataset, split: str = "test") -> Metrics:
    """Predict the per-channel mean of the train split (zero after z-scoring
    unless channels were constant)."""
    mean = dataset.train_channel_mean()
    return _score(dataset, split, 256, lambda x: mean)
