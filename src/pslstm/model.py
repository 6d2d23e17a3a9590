"""Patch-based sLSTM forecasting model.

Pipeline for a batch x of shape (B, L, M):

    instance-normalize each (sample, channel) window
    -> channel independence: (B*M, L)            [or channel mixing]
    -> patchify: (B*M, N, P)
    -> linear embedding: (B*M, N, E)
    -> n_blocks x [sLSTM over the patch sequence + residual + layernorm]
    -> flatten: (B*M, N*E) -> linear head -> (B*M, T)
    -> denormalize and reshape to (B, T, M)

Under channel independence every channel shares the same backbone, so the
parameter count is independent of M. Channel mixing concatenates the M
patches at each time index instead; the backbone width becomes E*M.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .cells import (GateMode, SLSTMParams, block_diagonal_mask,
                    slstm_backward, slstm_forward)
from .tensorops import Rng, ShapeError

_LN_EPS = 1e-5
_INORM_EPS = 1e-5
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    lookback: int
    horizon: int
    n_channels: int
    patch_size: int
    patch_stride: int = 0          # 0 means "equal to patch_size"
    embed_dim: int = 32
    n_blocks: int = 1
    n_heads: int = 2
    gate_mode: GateMode = field(default_factory=GateMode)
    channel_strategy: str = "independent"
    dropout_rate: float = 0.1
    instance_norm: bool = True

    def __post_init__(self):
        if min(self.lookback, self.horizon, self.n_channels,
               self.patch_size, self.embed_dim, self.n_blocks, self.n_heads) < 1:
            raise ValueError("all size fields must be positive")
        if self.patch_size > self.lookback:
            raise ValueError(f"patch_size {self.patch_size} exceeds "
                             f"lookback {self.lookback}")
        if self.patch_stride < 0:
            raise ValueError("patch_stride must be >= 1 (or 0 for default)")
        if self.embed_dim % self.n_heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by "
                             f"{self.n_heads} heads")
        if self.channel_strategy not in ("independent", "mixed"):
            raise ValueError(f"bad channel_strategy {self.channel_strategy!r}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")

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
    if P > L:
        raise ShapeError(f"patchify: patch_size {P} exceeds series length {L}")
    offset = L - (P + (N - 1) * S)
    rows = x.transpose(0, 2, 1).reshape(B * M, L)
    idx = offset + np.arange(N)[:, None] * S + np.arange(P)[None, :]
    return rows[:, idx]


def _unpatch_rows(B: int, M: int, horizon: int, rows: np.ndarray) -> np.ndarray:
    """Head output rows (channel-major) back to (B, T, M)."""
    return rows.reshape(B, M, horizon).transpose(0, 2, 1)


@dataclass
class ModelTape:
    """Intermediate values of one forward pass, consumed by backward()."""
    mu: np.ndarray
    sigma: np.ndarray
    patches: np.ndarray
    cell_tapes: list               # SequenceTape per block
    ln_caches: list
    dropout_masks: list            # bool keep-mask per site, or None
    flat: np.ndarray


class Forecaster:
    """The patch-based sLSTM forecaster; owns all trainable parameters.

    Parameters live in a flat dict (name -> ndarray) so the optimizer can
    treat them uniformly; recurrent matrices carry block-diagonal masks.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = Rng(seed)
        c = config
        self.width = c.embed_dim if c.channel_strategy == "independent" \
            else c.embed_dim * c.n_channels
        self.in_width = c.patch_size if c.channel_strategy == "independent" \
            else c.patch_size * c.n_channels
        self.out_width = c.horizon if c.channel_strategy == "independent" \
            else c.horizon * c.n_channels

        self.params: dict[str, np.ndarray] = {}
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
            for name, arr in cell.as_dict(f"block{k}.").items():
                self.params[name] = arr
            rmask = block_diagonal_mask(self.width, c.n_heads)
            if not c.gate_mode.memory_mixing:
                rmask = np.zeros_like(rmask)
            for g in "zifo":
                self.masks[f"block{k}.R_{g}"] = rmask
            self.params[f"block{k}.ln_gain"] = np.ones(self.width)
            self.params[f"block{k}.ln_bias"] = np.zeros(self.width)

        head_in = c.n_patches * self.width
        self.params["head.W"] = rng.normal((self.out_width, head_in),
                                           0.0, 1.0 / np.sqrt(head_in))
        self.params["head.b"] = np.zeros(self.out_width)

    # -- forward / backward ------------------------------------------------

    def _arrange(self, xn: np.ndarray) -> np.ndarray:
        """Normalized (B, L, M) -> patch rows for the configured strategy."""
        c = self.config
        patches = patchify(xn, c)                       # (B*M, N, P)
        if c.channel_strategy == "independent":
            return patches
        B = xn.shape[0]
        # concatenate the M channel patches at each patch index
        return patches.reshape(B, c.n_channels, c.n_patches, c.patch_size) \
                      .transpose(0, 2, 1, 3) \
                      .reshape(B, c.n_patches, self.in_width)

    def _dropout(self, u: np.ndarray, rng: Rng) -> np.ndarray:
        """Draw a bool keep-mask and apply it to u; backward() reapplies it."""
        keep = rng.uniform(u.shape) >= self.config.dropout_rate
        self._apply_keep(u, keep)
        return keep

    def _apply_keep(self, a: np.ndarray, keep: np.ndarray | None) -> None:
        """Inverted dropout in place: zero a where keep is False and scale
        the rest by 1 / (1 - dropout_rate); no-op without a mask."""
        if keep is not None:
            a *= keep
            a *= 1.0 / (1.0 - self.config.dropout_rate)

    def forward(self, x: np.ndarray, training: bool = False,
                dropout_rng: Rng | None = None) -> tuple[np.ndarray, ModelTape]:
        c = self.config
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != c.lookback or x.shape[2] != c.n_channels:
            raise ShapeError(f"forward: expected (B, {c.lookback}, "
                             f"{c.n_channels}), got {x.shape}")
        B = x.shape[0]
        drop = c.dropout_rate if training else 0.0
        if drop > 0 and dropout_rng is None:
            raise ValueError("training forward with dropout needs a dropout_rng")

        if c.instance_norm:
            mu = x.mean(axis=1, keepdims=True)
            sigma = x.std(axis=1, keepdims=True) + _INORM_EPS
            xn = (x - mu) / sigma
        else:
            mu = np.zeros((B, 1, c.n_channels))
            sigma = np.ones((B, 1, c.n_channels))
            xn = x

        patches = self._arrange(xn)
        u = (patches.reshape(-1, self.in_width) @ self.params["embed.W"].T) \
            .reshape(patches.shape[:2] + (self.width,))
        u += self.params["embed.b"]
        masks = [self._dropout(u, dropout_rng) if drop > 0 else None]

        cell_tapes, ln_caches = [], []
        for k, cell in enumerate(self.blocks):
            h_seq, tape = slstm_forward(cell, u, None, c.gate_mode)
            cell_tapes.append(tape)
            # layer norm of the residual sum, in place; the sum of squares
            # over the width repeats np.var's arithmetic bit for bit
            xhat = u + h_seq
            xhat -= xhat.mean(axis=-1, keepdims=True)
            std = np.sqrt(np.sum(xhat * xhat, axis=-1, keepdims=True)
                          / self.width + _LN_EPS)
            xhat /= std
            ln_caches.append((xhat, std))
            u = xhat * self.params[f"block{k}.ln_gain"]
            u += self.params[f"block{k}.ln_bias"]
            masks.append(self._dropout(u, dropout_rng) if drop > 0 else None)

        flat = u.reshape(u.shape[0], -1)
        out_rows = flat @ self.params["head.W"].T + self.params["head.b"]
        yhat_n = _unpatch_rows(B, c.n_channels, c.horizon, out_rows)
        yhat = yhat_n * sigma + mu
        tape = ModelTape(mu=mu, sigma=sigma, patches=patches,
                         cell_tapes=cell_tapes, ln_caches=ln_caches,
                         dropout_masks=masks, flat=flat)
        return yhat, tape

    def backward(self, tape: ModelTape, grad_y: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss wrt every parameter, given dloss/dyhat,
        keyed in the order of self.params.

        Consumes the tape: the cell tapes' gate buffers are reused for the
        gradients, so one forward pass supports one backward pass.
        """
        c = self.config
        grads = {}
        g = np.asarray(grad_y, dtype=np.float64) * tape.sigma      # denorm
        g_rows = g.transpose(0, 2, 1).reshape(-1, self.out_width)
        grads["head.W"] = g_rows.T @ tape.flat
        grads["head.b"] = g_rows.sum(axis=0)
        g_u = (g_rows @ self.params["head.W"]).reshape(
            tape.flat.shape[0], c.n_patches, self.width)

        for k in range(c.n_blocks - 1, -1, -1):
            self._apply_keep(g_u, tape.dropout_masks[k + 1])
            xhat, std = tape.ln_caches[k]
            grads[f"block{k}.ln_gain"] = (g_u * xhat).sum(axis=(0, 1))
            grads[f"block{k}.ln_bias"] = g_u.sum(axis=(0, 1))
            g_xhat = g_u * self.params[f"block{k}.ln_gain"]
            g_r = (g_xhat - g_xhat.mean(axis=-1, keepdims=True)
                   - xhat * (g_xhat * xhat).mean(axis=-1, keepdims=True)) / std
            cell_grads, g_in = slstm_backward(self.blocks[k],
                                              tape.cell_tapes[k], g_r,
                                              c.gate_mode)
            for name, arr in cell_grads.items():
                grads[f"block{k}.{name}"] = arr
            g_u = g_r + g_in

        self._apply_keep(g_u, tape.dropout_masks[0])
        grads["embed.W"] = g_u.reshape(-1, self.width).T \
            @ tape.patches.reshape(-1, self.in_width)
        grads["embed.b"] = g_u.sum(axis=(0, 1))
        # params order: clip_gradients sums the squared norms in dict order
        return {name: grads[name] for name in self.params}

    # -- bookkeeping -------------------------------------------------------

    def count_params(self) -> int:
        """Trainable scalar count; frozen (off-block or zero-mask) recurrent
        entries are excluded."""
        total = 0
        for name, arr in self.params.items():
            if name in self.masks:
                total += int(self.masks[name].sum())
            else:
                total += arr.size
        return total

    def clone(self) -> "Forecaster":
        other = Forecaster(self.config, seed=0)
        for name, arr in self.params.items():
            other.params[name][...] = arr
        return other


# -- checkpointing ---------------------------------------------------------

def _config_to_dict(config: ModelConfig) -> dict:
    d = asdict(config)
    d["gate_mode"] = asdict(config.gate_mode)
    return d


def config_from_dict(d: dict) -> ModelConfig:
    d = dict(d)
    if isinstance(d.get("gate_mode"), dict):
        d["gate_mode"] = GateMode(**d["gate_mode"])
    return ModelConfig(**d)


def save_checkpoint(model: Forecaster, path) -> None:
    blob = {
        "version": CHECKPOINT_VERSION,
        "config": _config_to_dict(model.config),
        "params": {name: {"shape": list(arr.shape),
                          "data": arr.ravel().tolist()}
                   for name, arr in sorted(model.params.items())},
    }
    with open(path, "w") as fh:
        json.dump(blob, fh, sort_keys=True)


def load_checkpoint(path) -> Forecaster:
    """Rebuild a Forecaster from a checkpoint written by save_checkpoint.

    The file must hold a valid config and exactly the model's parameters,
    each with its model's shape; anything else raises ValueError.
    """
    with open(path) as fh:
        blob = json.load(fh)
    if blob.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {blob.get('version')!r}")
    try:
        model = Forecaster(config_from_dict(blob["config"]), seed=0)
        stored = {name: np.array(entry["data"], dtype=np.float64)
                  .reshape(entry["shape"])
                  for name, entry in blob["params"].items()}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint: {exc!r}") from exc
    missing = sorted(set(model.params) - set(stored))
    unknown = sorted(set(stored) - set(model.params))
    if missing or unknown:
        raise ValueError(f"checkpoint parameters do not match the model: "
                         f"missing {missing}, unknown {unknown}")
    for name, arr in stored.items():
        if model.params[name].shape != arr.shape:
            raise ValueError(f"checkpoint shape mismatch for {name}")
        model.params[name][...] = arr
    return model
