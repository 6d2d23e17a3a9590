"""Patch-based sLSTM forecasting model.

Pipeline for a batch x of shape (B, L, M):

    instance-normalize each (sample, channel) window
    -> patchify: (B*M, N, P)
    -> group g channels per row: (B*M/g, N, g*P)
    -> linear embedding: (B*M/g, N, g*E)
    -> n_blocks x [sLSTM over the patch sequence + residual + layernorm]
    -> flatten: (B*M/g, N*g*E) -> linear head -> (B*M/g, g*T)
    -> denormalize and reshape to (B, T, M)

The two channel strategies differ only in g, the number of channels that
share one cell row. Channel independence (g = 1) runs every channel through
the same backbone as a row of its own, so the parameter count is
independent of M. Channel mixing (g = M) concatenates the M patches at
each time index into one row, so the backbone width becomes E*M.

Forecaster.forward keeps a tape for backward; Forecaster.predict, the
evaluation path, runs the same pipeline to the same bytes and keeps none.
The embedding and head products and their gradients go through
tensorops.matmul_rows, which may split their output rows over two CPUs,
to the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Annotated, Literal

import numpy as np

from .cells import (GateMode, SLSTMParams, slstm_backward, slstm_forward,
                    slstm_predict)
from .tensorops import (_ELEMENTWISE_SPLIT_BLOCKS, _MAX_VALUES, AtLeast0,
                        AtLeast1, DataError, Rng, ShapeError, check_fields,
                        for_blocks, from_dict, matmul_rows, read_json,
                        row_slices, split_point, write_json)

_LN_EPS = 1e-5
_INORM_EPS = 1e-5
#: 2: each block's W, b and R in the kernel layout (SLSTMParams), the only
#: version load_checkpoint accepts
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ModelConfig:
    lookback: AtLeast1
    horizon: AtLeast1
    n_channels: AtLeast1
    patch_size: AtLeast1
    patch_stride: AtLeast0 = 0     # 0 means "equal to patch_size"
    embed_dim: AtLeast1 = 32
    n_blocks: AtLeast1 = 1
    n_heads: AtLeast1 = 2
    gate_mode: GateMode = field(default_factory=GateMode)
    channel_strategy: Literal["independent", "mixed"] = "independent"
    dropout_rate: Annotated[float, (">=", 0), ("<", 1)] = 0.1
    instance_norm: bool = True

    def __post_init__(self):
        check_fields(self)
        for name in ("patch_size", "patch_stride"):
            if getattr(self, name) > self.lookback:
                raise ValueError(f"{name} {getattr(self, name)} exceeds "
                                 f"lookback {self.lookback}")
        if self.embed_dim % self.n_heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by "
                             f"{self.n_heads} heads")
        if self.n_params > _MAX_VALUES:
            raise ValueError(f"the model would have more than {_MAX_VALUES:,} "
                             f"parameters")

    @property
    def n_params(self) -> int:
        """Forecaster(self).count_params(), from the config alone: the
        embedding, per block the cell's W, b and on-block R (with memory
        mixing) and the layer norm's gain and bias, then the head."""
        g = self.channels_per_row
        d, d_out = self.embed_dim * g, self.horizon * g
        s = d // self.n_heads
        recurrent = 4 * s * d if self.gate_mode.memory_mixing else 0
        block = 4 * d * d + 4 * d + recurrent + 2 * d
        return d * self.patch_size * g + d + self.n_blocks * block \
            + d_out * self.n_patches * d + d_out

    @property
    def channels_per_row(self) -> int:
        """g, the channels that share one cell row: all M under channel
        mixing, 1 under channel independence."""
        return self.n_channels if self.channel_strategy == "mixed" else 1

    @property
    def stride(self) -> int:
        return self.patch_stride if self.patch_stride else self.patch_size

    @property
    def n_patches(self) -> int:
        return (self.lookback - self.patch_size) // self.stride + 1


def patchify(x: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Segment (B, L, M) into (B*M, N, P) patches, b-major / m-minor rows.

    If (L - P) is not divisible by the stride, the oldest timesteps are
    dropped so the last patch ends exactly at t = L.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"patchify: expected (B, L, M), got {x.shape}")
    B, L, M = x.shape
    P, S, N = config.patch_size, config.stride, config.n_patches
    span = P + (N - 1) * S
    if L < span:
        raise ShapeError(f"patchify: series length {L} is shorter than the "
                         f"{span} steps of {N} patches of size {P}, stride {S}")
    offset = L - span
    rows = x.transpose(0, 2, 1).reshape(B * M, L)
    idx = offset + np.arange(N)[:, None] * S + np.arange(P)[None, :]
    return rows[:, idx]


@dataclass
class ModelTape:
    """Intermediate values of one forward pass, consumed by backward()."""
    sigma: np.ndarray
    patches: np.ndarray
    cell_tapes: list               # SequenceTape per block
    ln_caches: list                # (xhat, std) per block; None once used
    dropout_masks: list            # bool keep-mask per site, or None
    flat: np.ndarray | None        # None once backward has read it


class Forecaster:
    """The patch-based sLSTM forecaster; owns all trainable parameters.

    Parameters live in a flat dict (name -> ndarray) so the optimizer can
    treat them uniformly; block{k}.W, .b and .R (with memory mixing) are
    the arrays of self.blocks[k], in the kernel layout of SLSTMParams.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = Rng(seed)
        c = config
        g = self.channels_per_row = c.channels_per_row
        self.width = c.embed_dim * g
        self.in_width = c.patch_size * g
        self.out_width = c.horizon * g

        self.params: dict[str, np.ndarray] = {}
        # always empty: kept only because perfbench's step still calls
        # clip_gradients, then adam_step(..., masks); it can go once that
        # step calls adam_step(..., clip_norm=)
        self.masks: dict[str, np.ndarray] = {}
        self.params["embed.W"] = rng.normal((self.width, self.in_width),
                                            0.0, 1.0 / np.sqrt(self.in_width))
        self.params["embed.b"] = np.zeros(self.width)

        self.blocks: list[SLSTMParams] = []
        for k in range(c.n_blocks):
            cell = SLSTMParams.init(rng.spawn(k + 1), self.width, self.width,
                                    n_heads=c.n_heads,
                                    memory_mixing=c.gate_mode.memory_mixing)
            self.blocks.append(cell)
            self.params.update(cell.as_dict(f"block{k}."))
            self.params[f"block{k}.ln_gain"] = np.ones(self.width)
            self.params[f"block{k}.ln_bias"] = np.zeros(self.width)

        head_in = c.n_patches * self.width
        self.params["head.W"] = rng.normal((self.out_width, head_in),
                                           0.0, 1.0 / np.sqrt(head_in))
        self.params["head.b"] = np.zeros(self.out_width)

    @property
    def gate_elements_per_window(self) -> int:
        """Elements one window adds to predict's (S, B, 4d) gate buffers,
        summed over blocks: n_patches steps times 4 * n_channels *
        embed_dim, per block (its M / g cell rows of width g * E)."""
        c = self.config
        return 4 * c.n_patches * c.n_channels * c.embed_dim * c.n_blocks

    # -- forward / backward ------------------------------------------------

    def _keep_mask(self, shape: tuple, rng: Rng | None) -> np.ndarray | None:
        """A bool dropout keep-mask, rng.uniform(shape) >= dropout_rate bit
        for bit and leaving rng where that draw would; None without an rng.

        The draw runs a row block at a time through for_blocks, each part
        into one reused float scratch of its own, in stream order, so no
        float array of the whole shape is made. The caller's part draws
        from rng. The worker's part draws from rng.ahead(n), n the values
        before its first row, copied before the split starts; rng then
        skips the worker's values. So the mask has the bytes of one draw,
        split or not."""
        if rng is None:
            return None
        shape = tuple(shape)
        keep = np.empty(shape, dtype=bool)
        blocks = row_slices(shape)
        row = math.prod(shape[1:])
        ahead = None
        if len(blocks) >= _ELEMENTWISE_SPLIT_BLOCKS:
            ahead = rng.ahead(blocks[split_point(len(blocks))].start * row)
        drawn = 0           # the rows drawn from rng itself

        def draw(part: list) -> None:
            nonlocal drawn
            stream = rng if part[0] is blocks[0] else ahead
            scratch = np.empty((part[0].stop - part[0].start,) + shape[1:])
            for blk in part:
                u = scratch[:blk.stop - blk.start]
                np.greater_equal(stream.uniform(u.shape, out=u),
                                 self.config.dropout_rate, out=keep[blk])
            if stream is rng:
                drawn = part[-1].stop
        for_blocks(draw, blocks, _ELEMENTWISE_SPLIT_BLOCKS)
        if drawn < shape[0]:
            rng.skip((shape[0] - drawn) * row)
        return keep

    def _apply_keep(self, a: np.ndarray, keep: np.ndarray | None) -> None:
        """Inverted dropout in place: zero a where keep is False and scale
        the rest by 1 / (1 - dropout_rate); no-op without a mask."""
        if keep is not None:
            a *= keep
            a *= 1.0 / (1.0 - self.config.dropout_rate)

    def _add_and_keep(self, a: np.ndarray, add: np.ndarray | None,
                      keep: np.ndarray | None) -> None:
        """a += add (unless None: a bias, or an array of a's shape), then
        _apply_keep(a, keep), in place, a row block at a time through
        for_blocks, which may run two halves at once, to the same bytes."""
        def run(blocks: list) -> None:
            for blk in blocks:
                if add is not None:
                    a[blk] += add if add.ndim == 1 else add[blk]
                self._apply_keep(a[blk], None if keep is None else keep[blk])
        if add is not None or keep is not None:
            for_blocks(run, row_slices(a.shape), _ELEMENTWISE_SPLIT_BLOCKS)

    def _embed(self, x: np.ndarray):
        """Check x, instance-normalize it, patchify it, join each row's g
        channels at every patch index and multiply by embed.W: returns (mu,
        sigma, patches, u), patches (B*M/g, N, g*P) and u (B*M/g, N,
        width), the embedding without its bias, which the caller adds
        (_add_and_keep)."""
        c = self.config
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != c.lookback or x.shape[2] != c.n_channels:
            raise ShapeError(f"forward: expected (B, {c.lookback}, "
                             f"{c.n_channels}), got {x.shape}")
        if c.instance_norm:
            # x.mean(axis=1) and x.std(axis=1) bit for bit, the deviations
            # x - mu computed once, for sigma and for xn
            mu = np.add.reduce(x, axis=1, keepdims=True)
            mu /= c.lookback
            xn = x - mu
            sigma = np.add.reduce(np.square(xn), axis=1, keepdims=True)
            sigma /= c.lookback
            np.sqrt(sigma, out=sigma)
            sigma += _INORM_EPS
            xn /= sigma
        else:
            mu = np.zeros((x.shape[0], 1, c.n_channels))
            sigma = np.ones((x.shape[0], 1, c.n_channels))
            xn = x
        g, N = self.channels_per_row, c.n_patches
        patches = patchify(xn, c).reshape(-1, g, N, c.patch_size) \
            .transpose(0, 2, 1, 3).reshape(-1, N, self.in_width)
        u = matmul_rows(patches.reshape(-1, self.in_width),
                        self.params["embed.W"].T) \
            .reshape(patches.shape[:2] + (self.width,))
        return mu, sigma, patches, u

    def _head(self, flat: np.ndarray, mu: np.ndarray,
              sigma: np.ndarray) -> np.ndarray:
        """The forecast (B, T, M) from the flattened last block output."""
        c = self.config
        out_rows = matmul_rows(flat, self.params["head.W"].T)
        out_rows += self.params["head.b"]
        # channel-major rows back to (B, T, M)
        yhat_n = out_rows.reshape(-1, c.n_channels, c.horizon).transpose(0, 2, 1)
        return yhat_n * sigma + mu

    def forward(self, x: np.ndarray, training: bool = False,
                dropout_rng: Rng | None = None) -> tuple[np.ndarray, ModelTape]:
        c = self.config
        mu, sigma, patches, u = self._embed(x)
        drop = c.dropout_rate if training else 0.0
        if drop > 0 and dropout_rng is None:
            raise ValueError("training forward with dropout needs a dropout_rng")
        rng = dropout_rng if drop > 0 else None
        masks = [self._keep_mask(u.shape, rng)]
        self._add_and_keep(u, self.params["embed.b"], masks[0])

        cell_tapes, ln_caches = [], []
        for k, cell in enumerate(self.blocks):
            h_seq, tape = slstm_forward(cell, u, None, c.gate_mode)
            cell_tapes.append(tape)
            # the residual is read from the tape's time-major copy of u (the
            # same values), so u itself is freed now, not after the layer norm
            u = tape.x.reshape(u.shape[1], u.shape[0], self.width) \
                .transpose(1, 0, 2)
            masks.append(self._keep_mask(u.shape, rng))
            xhat, std, u = self._layer_norm(k, u, h_seq, masks[-1])
            ln_caches.append((xhat, std))

        flat = u.reshape(u.shape[0], -1)
        tape = ModelTape(sigma=sigma, patches=patches,
                         cell_tapes=cell_tapes, ln_caches=ln_caches,
                         dropout_masks=masks, flat=flat)
        return self._head(flat, mu, sigma), tape

    def predict(self, x: np.ndarray) -> np.ndarray:
        """forward(x)[0] bit for bit, without a tape: the evaluation path.

        Each block runs slstm_predict, slstm_forward's sequence driver
        without the tape: one (S, B, 4d) gate buffer per call (h is a view
        of the same allocation), no c or n tape and no activation
        copy-back; like slstm_forward it returns the batch-major view of a
        time-major h. The layer norm then writes the residual sum and its
        output over the block input u, which nothing reads afterwards, one
        row block at a time, keeping no cache.
        """
        mu, sigma, _, u = self._embed(x)
        self._add_and_keep(u, self.params["embed.b"], None)
        for k, cell in enumerate(self.blocks):
            h_seq = slstm_predict(cell, u, self.config.gate_mode)
            u = self._layer_norm(k, u, h_seq, cache=False)
            # h_seq holds the cell's whole gate buffer: free it before the
            # next block allocates its own
            del h_seq
        return self._head(u.reshape(u.shape[0], -1), mu, sigma)

    def _layer_norm(self, k: int, u: np.ndarray, h_seq: np.ndarray,
                    keep: np.ndarray | None = None, cache: bool = True):
        """Block k's layer norm of the residual sum u + h_seq over the width,
        its gain and bias, then the dropout keep-mask. Rows are independent,
        so this runs one row block at a time. With cache it writes into new
        C-ordered arrays, whatever u's layout (forward passes a view of the
        cell tape's time-major copy), and returns (xhat, std, output) for
        the backward; without (evaluation) it writes the sum and then the
        output over u and returns only that. The mean and the sum of
        squares over the width repeat np.mean's and np.var's arithmetic bit
        for bit: an add.reduce, then a divide by the width; with cache the
        squares go into the output block before the output does. The row
        blocks go through tensorops.for_blocks, which may run two halves
        at once, to the same bytes."""
        gain = self.params[f"block{k}.ln_gain"]
        bias = self.params[f"block{k}.ln_bias"]
        xhat = out = u
        std = None
        if cache:
            xhat, out = np.empty(u.shape), np.empty(u.shape)
            std = np.empty(u.shape[:-1] + (1,))

        def run(blocks: list) -> None:
            for blk in blocks:
                x = np.add(u[blk], h_seq[blk], out=xhat[blk])
                mean = np.add.reduce(x, axis=-1, keepdims=True)
                mean /= self.width
                x -= mean
                squares = np.multiply(x, x, out=out[blk] if cache else None)
                var = np.add.reduce(squares, axis=-1, keepdims=True,
                                    out=None if std is None else std[blk])
                var /= self.width
                var += _LN_EPS
                x /= np.sqrt(var, out=var)
                y = np.multiply(x, gain, out=out[blk])
                y += bias
                self._apply_keep(y, None if keep is None else keep[blk])
        for_blocks(run, row_slices(u.shape), _ELEMENTWISE_SPLIT_BLOCKS)
        return (xhat, std, out) if cache else out

    def _layer_norm_backward(self, k: int, g_u: np.ndarray, xhat: np.ndarray,
                             std: np.ndarray, keep: np.ndarray | None):
        """Gradient of _layer_norm's input, given dloss/doutput g_u, which it
        overwrites. A first pass over the row blocks applies the keep-mask
        to g_u in place and writes g_u * xhat into the result array; the
        gain and bias gradients reduce over rows, so they are summed whole
        from those two. A second pass writes each block's input gradient
        over that product, with the block of g_u, which nothing reads any
        more, as the scratch of its two products. The two means over the
        width are np.mean's arithmetic (an add.reduce, then a divide).
        Both passes go through tensorops.for_blocks, which may run two
        halves at once, to the same bytes."""
        gain = self.params[f"block{k}.ln_gain"]
        g_r = np.empty_like(g_u)
        blocks = row_slices(g_u.shape)

        def masked_products(blocks: list) -> None:
            for blk in blocks:
                self._apply_keep(g_u[blk], None if keep is None else keep[blk])
                np.multiply(g_u[blk], xhat[blk], out=g_r[blk])
        for_blocks(masked_products, blocks, _ELEMENTWISE_SPLIT_BLOCKS)
        grads = {f"block{k}.ln_gain": g_r.sum(axis=(0, 1)),
                 f"block{k}.ln_bias": g_u.sum(axis=(0, 1))}

        def run(blocks: list) -> None:
            for blk in blocks:
                tmp, x = g_u[blk], xhat[blk]
                gx = np.multiply(tmp, gain, out=g_r[blk])
                proj = np.add.reduce(np.multiply(gx, x, out=tmp), axis=-1,
                                     keepdims=True)
                proj /= self.width
                mean = np.add.reduce(gx, axis=-1, keepdims=True)
                mean /= self.width
                gx -= mean
                gx -= np.multiply(x, proj, out=tmp)
                gx /= std[blk]
        for_blocks(run, blocks, _ELEMENTWISE_SPLIT_BLOCKS)
        return grads, g_r

    def backward(self, tape: ModelTape, grad_y: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss wrt every parameter, given dloss/dyhat,
        keyed in the order of self.params.

        Consumes the tape, dropping each array from it after its last read:
        flat after the head gradient; block k's layer-norm cache, and the
        gradient flowing into that layer norm, after its backward; the cell
        tape's arrays inside slstm_backward (its gate buffer is reused for
        the gradients). So a step's live memory shrinks as the backward
        proceeds, and one forward pass supports one backward pass: a second
        raises ValueError before reading anything.
        """
        if tape.flat is None:
            raise ValueError("backward: the tape was already consumed")
        c = self.config
        grads = {}
        g = np.asarray(grad_y, dtype=np.float64) * tape.sigma      # denorm
        g_rows = g.transpose(0, 2, 1).reshape(-1, self.out_width)
        grads["head.W"] = matmul_rows(g_rows.T, tape.flat)
        grads["head.b"] = g_rows.sum(axis=0)
        g_u = matmul_rows(g_rows, self.params["head.W"]).reshape(
            tape.flat.shape[0], c.n_patches, self.width)
        tape.flat = None

        for k in range(c.n_blocks - 1, -1, -1):
            cache, tape.ln_caches[k] = tape.ln_caches[k], None
            # rebinding g_u frees the incoming gradient with the cache
            ln_grads, g_u = self._layer_norm_backward(
                k, g_u, *cache, tape.dropout_masks[k + 1])
            del cache
            grads.update(ln_grads)
            cell_grads, g_in = slstm_backward(self.blocks[k],
                                              tape.cell_tapes[k], g_u)
            for name, arr in cell_grads.items():
                grads[f"block{k}.{name}"] = arr
            # g_u += g_in, then block 0's input takes the first mask
            self._add_and_keep(g_u, g_in,
                               tape.dropout_masks[0] if k == 0 else None)
            del g_in

        grads["embed.W"] = matmul_rows(g_u.reshape(-1, self.width).T,
                                       tape.patches.reshape(-1, self.in_width))
        grads["embed.b"] = g_u.sum(axis=(0, 1))
        # params order: the global norm (adam_step, clip_gradients) sums the
        # squared norms in dict order
        return {name: grads[name] for name in self.params}

    # -- bookkeeping -------------------------------------------------------

    def count_params(self) -> int:
        """Trainable scalar count: every entry of every parameter. Only the
        diagonal blocks of the recurrent matrices are stored."""
        return sum(arr.size for arr in self.params.values())


# -- checkpointing ---------------------------------------------------------

def save_checkpoint(model: Forecaster, path) -> None:
    blob = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "params": {name: {"shape": list(arr.shape),
                          "data": arr.ravel().tolist()}
                   for name, arr in sorted(model.params.items())},
    }
    write_json(path, blob)


def load_checkpoint(path) -> Forecaster:
    """Rebuild a Forecaster from a checkpoint written by save_checkpoint.

    The file must hold a valid config and exactly the model's parameters,
    each with its model's shape, and its version must be the integer
    CHECKPOINT_VERSION; anything else raises DataError.
    """
    blob = read_json(path, DataError, "checkpoint")
    version = blob.get("version") if isinstance(blob, dict) else None
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version!r}")
    try:
        model = Forecaster(from_dict(ModelConfig, blob["config"]), seed=0)
        stored = {name: _stored_array(name, entry)
                  for name, entry in blob["params"].items()}
    except DataError:
        raise
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise DataError(f"malformed checkpoint: {exc!r}") from exc
    missing = sorted(set(model.params) - set(stored))
    unknown = sorted(set(stored) - set(model.params))
    if missing or unknown:
        raise DataError(f"checkpoint parameters do not match the model: "
                        f"missing {missing}, unknown {unknown}")
    for name, arr in stored.items():
        if model.params[name].shape != arr.shape:
            raise DataError(f"checkpoint shape mismatch for {name}")
        model.params[name][...] = arr
    return model


def _stored_array(name: str, entry) -> np.ndarray:
    """One checkpoint entry's array; DataError unless its shape is a list of
    non-negative ints and its data a flat list of prod(shape) finite
    numbers (bools are neither)."""
    shape, data = (entry.get(k) if isinstance(entry, dict) else None
                   for k in ("shape", "data"))
    if not (isinstance(shape, list)
            and all(type(k) is int and k >= 0 for k in shape)
            and isinstance(data, list) and len(data) == math.prod(shape)
            and set(map(type, data)) <= {int, float}):
        raise DataError(f"checkpoint entry {name}: shape must be a list of "
                        f"non-negative ints, data a flat list of that many "
                        f"numbers")
    arr = np.array(data, dtype=np.float64)    # OverflowError: a huge int
    if not np.isfinite(arr).all():
        raise DataError(f"checkpoint entry {name}: non-finite data")
    return arr.reshape(shape)

