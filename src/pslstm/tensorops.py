"""Numeric helpers shared by the library.

Tensors are plain ``numpy.ndarray`` objects in double precision, row-major.
The module holds the shape and data errors, the seeded random stream (bit-exact
reproducibility from a seed) and the overflow-free sigmoid and log-sigmoid.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor shapes are inconsistent with an operation."""


class DataError(ValueError):
    """Raised when a CSV, checkpoint or series is rejected (CLI exit 3)."""


class Rng:
    """Seeded random stream. Identical seed => identical sample stream."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, offset: int) -> "Rng":
        """Derive an independent stream; deterministic in (seed, offset)."""
        return Rng((self.seed * 1_000_003 + offset) % (2**63))

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Gaussian tensor, deterministic given the seed and call order."""
        if std < 0:
            raise ValueError(f"std must be non-negative, got {std}")
        if std == 0:
            return np.full(shape, float(mean), dtype=np.float64)
        return self._gen.normal(mean, std, size=shape)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.random(size=shape, dtype=np.float64)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)); saturates to {0, 1}
    cleanly, without overflow warnings."""
    out = np.tanh(0.5 * np.asarray(x, dtype=np.float64))
    out *= 0.5      # 0.5 + 0.5 t rounds exactly like 0.5 * (1 + t)
    out += 0.5
    return out


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)) without intermediate overflow."""
    x = np.asarray(x, dtype=np.float64)
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
