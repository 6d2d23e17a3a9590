"""Numeric helpers shared by the library.

Tensors are plain ``numpy.ndarray`` objects in double precision, row-major.
The module holds the shape and data errors, the seeded random stream, the
overflow-free sigmoid and log-sigmoid, the row-block rule shared by the
cell's time loops, the layer norm and the dropout draw (Adam's chunks take
the same element bound, _CHUNK), the runner of independent blocks on two
CPUs (for_blocks), the element budget of an evaluation call, and the
config schema checks, which read a field's type, values and range
(``AtLeast1``) off its annotation.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import math
import operator
import os
import typing

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

    def uniform(self, shape, out: np.ndarray | None = None) -> np.ndarray:
        """Uniform [0, 1) tensor; given out (of that shape), filled in
        place. A C-ordered array drawn in leading-axis slices, in order,
        gets the bytes of one draw of the whole."""
        return self._gen.random(size=shape, dtype=np.float64, out=out)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)); saturates to {0, 1}
    cleanly, without overflow warnings. out may be x itself."""
    if out is None:
        out = np.tanh(0.5 * np.asarray(x, dtype=np.float64))
    else:
        np.tanh(np.multiply(0.5, x, out=out), out=out)
    out *= 0.5      # 0.5 + 0.5 t rounds exactly like 0.5 * (1 + t)
    out += 0.5
    return out


def log_sigmoid(x: np.ndarray, out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
    """log(sigmoid(x)) as min(x, 0) - log1p(exp(-|x|)), without
    intermediate overflow. out may be x itself; work, an array of x's
    shape, holds the second term, so that given both it allocates
    nothing."""
    x = np.asarray(x, dtype=np.float64)
    # -|x| as one bit operation: copysign sets the sign bit, as negating
    # abs(x) does, NaNs included
    work = np.copysign(x, -1.0, out=np.empty_like(x) if work is None else work)
    np.exp(work, out=work)
    np.log1p(work, out=work)
    out = np.minimum(x, 0.0, out=out)
    out -= work
    return out


# -- row blocks ------------------------------------------------------------

#: Elements per row block and per Adam chunk: 256 KB of float64, so a block
#: and the scratch of its elementwise passes stay in a core's L2 cache.
_CHUNK = 32768

#: Gate-buffer elements one evaluation predict call may hold (1.25 MiB of
#: float64): training._score puts k >= 1 batches in a call, the most whose
#: (S, B, 4d) gate buffers, summed over blocks, fit. From a sweep of
#: tiny_fit (768 elements a window, batch 64): 2 to 5 batches a call beat
#: 1 by 20-31% in evaluation windows/s, and 3 kept the peak RSS within 4%
#: (4 reached +6%, 5 +8%). A criterion-6 mixed batch of 32 (196,608) or
#: any Weather-shaped batch is over the budget alone, so those keep one
#: call per batch.
_EVAL_BUDGET = 163840


def row_slices(shape: tuple[int, ...]) -> list:
    """Leading-axis slices of at most _CHUNK elements (at least one row; a
    1-D array is sliced by element)."""
    rows = max(1, _CHUNK // max(math.prod(shape[1:]), 1))
    return [slice(lo, min(lo + rows, shape[0]))
            for lo in range(0, shape[0], rows)]


def split_point(n_blocks: int) -> int:
    """How many of n_blocks blocks for_blocks runs on the caller's thread
    when it splits them (the first half, rounded up); the worker thread
    runs the rest. A caller that gives each half its own scratch cuts its
    blocks here."""
    return (n_blocks + 1) // 2


def _cpus() -> int:
    """CPUs this thread may run on (1 where the platform cannot say)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


_worker = None      # the worker thread's executor, made at the first split


def _forget_worker() -> None:
    """A forked child has no worker thread: drop the parent's executor, so
    that the child's first split makes its own."""
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def for_blocks(fn: typing.Callable[[list], None], blocks: list,
               min_blocks: int = 2) -> None:
    """Run fn over independent blocks: fn(part) loops over part, a
    contiguous run of blocks, and the parts cover blocks in order.

    With fewer than min_blocks blocks (2 or more) or fewer than 2 CPUs,
    fn(blocks) runs the plain loop. Otherwise the caller's thread runs the
    first split_point(len(blocks)) blocks while one worker thread, made at
    the first split, runs the rest in a copy of the caller's context (numpy
    2 keeps np.errstate there, so it holds in the worker too). The blocks
    must write disjoint outputs and share no scratch; then every output
    keeps the bytes of the plain loop. The call returns once both halves
    have ended, also when one raised, and then raises the caller's half's
    exception if it has one (the one the plain loop meets first), else the
    worker's. fn must not call for_blocks: on the worker thread such a call
    would wait for its own thread."""
    if len(blocks) < min_blocks or _cpus() < 2:
        fn(blocks)
        return
    global _worker
    if _worker is None:
        import concurrent.futures
        _worker = concurrent.futures.ThreadPoolExecutor(
            1, thread_name_prefix="pslstm-blocks")
    k = split_point(len(blocks))
    second = _worker.submit(contextvars.copy_context().run, fn, blocks[k:])
    try:
        fn(blocks[:k])
    finally:
        second.exception()      # waits: fn's arrays are in use until it ends
    second.result()


# -- config schema ---------------------------------------------------------

_KINDS = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt}

#: field types that carry a range: Annotated (op, bound) pairs that every
#: value of the field but the None of an X | None field must satisfy
AtLeast0 = typing.Annotated[int, (">=", 0)]
AtLeast1 = typing.Annotated[int, (">=", 1)]
NonNegative = typing.Annotated[float, (">=", 0)]
Positive = typing.Annotated[float, (">", 0)]


@functools.cache
def _schema(cls) -> dict:
    """field name -> (annotation without None or range, accepted types,
    Literal values or None, (op, bound) pairs), from the resolved
    annotations of dataclass cls."""
    hints = typing.get_type_hints(cls, include_extras=True)
    schema = {}
    for f in dataclasses.fields(cls):
        args = typing.get_args(hints[f.name])
        none = (type(None),) if type(None) in args else ()
        hint = args[0] if none else hints[f.name]       # X | None
        bounds = getattr(hint, "__metadata__", ())      # Annotated[X, ...]
        hint = typing.get_args(hint)[0] if bounds else hint
        if typing.get_origin(hint) is typing.Literal:
            choices = typing.get_args(hint) + (None,) * len(none)
            schema[f.name] = (hint, (object,), choices, bounds)
        else:
            kinds = _KINDS.get(hint, (hint,)) + none
            schema[f.name] = (hint, kinds, None, bounds)
    return schema


def check_fields(obj) -> None:
    """Check each field of dataclass obj against its annotation: an int field
    takes a Python or numpy integer, a float field any real that is finite
    as a float (an int too large for a float is a bad value), only a
    bool field a bool; X | None also takes None, Literal[...] only its
    values. A range declared as Annotated metadata, such as
    Annotated[float, (">=", 0), ("<", 1)], holds for every value but None.
    Raises TypeError for a wrong type, ValueError for a bad value."""
    for name, (hint, kinds, choices, bounds) in _schema(type(obj)).items():
        v = getattr(obj, name)
        if choices is not None and v not in choices:
            raise ValueError(f"{name} must be one of {list(choices)}, got {v!r}")
        if not isinstance(v, kinds) or isinstance(v, bool) and bool not in kinds:
            raise TypeError(f"{name} must be {hint.__name__}, got {v!r}")
        if isinstance(v, (float, np.floating)) and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
        if hint is float and isinstance(v, int):
            try:
                float(v)
            except OverflowError:
                raise ValueError(f"{name} does not fit a finite float, got a "
                                 f"{v.bit_length()}-bit integer") from None
        for op, bound in () if v is None else bounds:
            if not _OPS[op](v, bound):
                raise ValueError(f"{name} must be {op} {bound}, got {v!r}")


def from_dict(cls, payload):
    """Build dataclass cls from a JSON object, rejecting unknown keys; a
    field annotated with a dataclass is built from its nested object."""
    if not isinstance(payload, dict):
        raise TypeError(f"{cls.__name__} must be an object, got {payload!r}")
    schema = _schema(cls)
    if unknown := payload.keys() - schema:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    nested = {k: from_dict(schema[k][0], v) for k, v in payload.items()
              if isinstance(v, dict) and dataclasses.is_dataclass(schema[k][0])}
    return cls(**{**payload, **nested})
