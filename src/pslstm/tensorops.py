"""Minimal dense-tensor numeric kernel.

Tensors are plain ``numpy.ndarray`` objects in double precision, row-major.
This module wraps the handful of primitives the rest of the library relies
on (matmul, elementwise ops, seeded Gaussian sampling) with the contract
checks the library expects: strict shape agreement (scalar broadcasting
only), named shape errors, and bit-exact reproducibility from a seed.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor shapes are inconsistent with an operation."""


class Rng:
    """Seeded random stream. Identical seed => identical sample stream."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, offset: int) -> "Rng":
        """Derive an independent stream; deterministic in (seed, offset)."""
        return Rng((self.seed * 1_000_003 + offset) % (2**63))

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        return rand_normal(self, shape, mean, std)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.random(size=shape, dtype=np.float64)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def rand_normal(rng: Rng, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
    """Gaussian tensor, deterministic given the rng's seed and call order."""
    if std < 0:
        raise ValueError(f"std must be non-negative, got {std}")
    if std == 0:
        return np.full(shape, float(mean), dtype=np.float64)
    return rng._gen.normal(mean, std, size=shape).astype(np.float64, copy=False)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit inner-dimension check."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return a @ b


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


_UNARY = {
    "tanh": np.tanh,
    "sigmoid": sigmoid,
    "exp": np.exp,
    "log": np.log,
}

_BINARY = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "max": np.maximum,
}


def _check_binary_shapes(op: str, a: np.ndarray, b: np.ndarray) -> None:
    # Scalar broadcasting only; anything else must match exactly.
    if a.shape != b.shape and a.ndim != 0 and b.ndim != 0:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def elementwise(op: str, a: np.ndarray, b: np.ndarray | None = None,
                checked: bool = True) -> np.ndarray:
    """Apply a named elementwise operation.

    Binary ops require equal shapes (scalars broadcast). In checked mode,
    division by an exact zero raises ZeroDivisionError rather than yielding
    inf/nan; raw-mode callers (the chain probe) pass checked=False.
    """
    a = np.asarray(a, dtype=np.float64)
    if op in _UNARY:
        if b is not None:
            raise ValueError(f"{op} is unary")
        return _UNARY[op](a)
    if op not in _BINARY:
        raise ValueError(f"unknown elementwise op {op!r}")
    if b is None:
        raise ValueError(f"{op} is binary")
    b = np.asarray(b, dtype=np.float64)
    _check_binary_shapes(op, a, b)
    if op == "div" and checked and np.any(b == 0.0):
        raise ZeroDivisionError("div: divisor contains an exact zero")
    return _BINARY[op](a, b)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.float64)
