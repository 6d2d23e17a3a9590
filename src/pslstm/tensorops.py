"""Numeric helpers shared by the library.

Tensors are plain ``numpy.ndarray`` objects in double precision, row-major.
The module holds the shape and data errors, the seeded random stream, the
overflow-free sigmoid and log-sigmoid, the row-block rule shared by the
cell's time loops, the layer norm and the dropout draw (Adam's chunks take
the same element bound, _CHUNK), the runner of independent blocks on two
CPUs (for_blocks) and the fewest blocks an elementwise pass splits from
(_ELEMENTWISE_SPLIT_BLOCKS), the matrix product split over the same two
CPUs by output rows (matmul_rows), the element budget of an evaluation
call, the JSON reader of configs and checkpoints (read_json), the one
writer of every JSON run file (write_json) and of every CSV run file
(write_csv), and the config schema checks, which read a field's type,
values and range (``AtLeast1``) off its annotation.

matmul_rows never splits the summed (K) dimension, so a row's bytes do
not depend on the thread that computes it. It splits only when each half
holds _GEMM_SPLIT_WORK multiply-adds, a bound that also keeps each half
out of this OpenBLAS's small-matrix kernel, which rounds differently.
"""

from __future__ import annotations

import contextvars
import csv
import dataclasses
import functools
import json
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
        place. Each value takes one 64-bit output of the PCG64 stream, so
        a C-ordered array drawn in leading-axis slices gets the bytes of
        one draw of the whole: in order from this stream, or a slice
        starting at value n from ahead(n)."""
        return self._gen.random(size=shape, dtype=np.float64, out=out)

    def ahead(self, n: int) -> "Rng":
        """A copy of this stream moved on by n uniform values: its uniform
        draws are the bytes this stream would draw after n values. This
        stream does not move."""
        bits = np.random.PCG64(0)
        bits.state = self._gen.bit_generator.state
        copy = Rng.__new__(Rng)
        copy.seed, copy._gen = self.seed, np.random.Generator(bits.advance(n))
        return copy

    def skip(self, n: int) -> None:
        """Move this stream on by n uniform values, to where drawing them
        leaves it. PCG64.advance drops the buffered half of an output that
        a 32-bit integer draw left, which a uniform draw keeps, so that
        half is saved and restored."""
        bits = self._gen.bit_generator
        half = bits.state
        bits.advance(n)
        state = bits.state
        state.update(has_uint32=half["has_uint32"], uinteger=half["uinteger"])
        bits.state = state

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

#: Fewest row blocks an elementwise pass splits over two CPUs: the layer
#: norm, the dropout draw, the dropout multiply, the embedding bias, the
#: copy of the cell's input rows and the add of its input gradient.
#: From 4 blocks on, the worker's half holds a full block besides the
#: tail. Such a pass is cheap per block, so a worker given only a short
#: tail costs more than it saves: sinusoid_tiny's 192-window evaluation
#: call (blocks of 170 and 22 rows) took evaluate from 26.3 to 28.7 ms
#: when its layer norm split. A cell block runs a whole time loop and
#: splits from 2.
_ELEMENTWISE_SPLIT_BLOCKS = 4

#: Gate-buffer elements of one evaluation predict call (1.25 MiB of
#: float64): training._score puts k >= 1 batches in a call, the most whose
#: (S, B, 4d) gate buffers over the whole call, summed over blocks, fit
#: (a call of several predict units holds only a unit's buffers per CPU
#: at a time, but those calls are one batch already). From a sweep of
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
#: True inside the parts of a split, on both threads: a split nested there
#: runs unsplit on its own thread rather than waiting for the busy worker
_splitting = contextvars.ContextVar("pslstm_splitting", default=False)


def _may_split() -> bool:
    """Whether a split may start here: 2 CPUs or more, and not inside a
    part of another split."""
    return not _splitting.get() and _cpus() >= 2


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

    With fewer than min_blocks blocks (2 or more), fewer than 2 CPUs or
    inside a part of another split, fn(blocks) runs the plain loop.
    Otherwise the caller's thread runs the first split_point(len(blocks))
    blocks while one worker thread, made at the first split, runs the rest
    in a copy of the caller's context (numpy 2 keeps np.errstate there, so
    it holds in the worker too). The blocks must write disjoint outputs
    and share no scratch; then every output keeps the bytes of the plain
    loop. The call returns once both halves have ended, also when one
    raised, and then raises the caller's half's exception if it has one
    (the one the plain loop meets first), else the worker's. A for_blocks
    or matmul_rows call inside fn runs unsplit on its own thread: on the
    worker, waiting for the worker would never end."""
    if len(blocks) < min_blocks or not _may_split():
        fn(blocks)
        return
    global _worker
    if _worker is None:
        import concurrent.futures
        _worker = concurrent.futures.ThreadPoolExecutor(
            1, thread_name_prefix="pslstm-blocks")
    k = split_point(len(blocks))
    token = _splitting.set(True)        # the worker's copy holds it too
    try:
        second = _worker.submit(contextvars.copy_context().run, fn,
                                blocks[k:])
        try:
            fn(blocks[:k])
        finally:
            second.exception()  # waits: fn's arrays are in use until it ends
    finally:
        _splitting.reset(token)
    second.result()


#: Fewest multiply-adds in each half of a product that matmul_rows splits:
#: (rows / 2) * N * K, which is work, not output size. Measured with one
#: BLAS thread: a bound of 2^15 output elements a half split tiny_fit's
#: 192-window evaluation input GEMM (2,304 x 16 by 16 x 64, 1.2e6
#: multiply-adds a half) and cost its forward_only_per_s 4-7%; 2^23
#: multiply-adds a half keeps every tiny_fit and probe product whole. Every
#: product routed through matmul_rows at the Weather shape, batch 64, holds
#: at least 2.9e7 a half. The bound also keeps each half out of this
#: OpenBLAS's small-matrix kernel, which takes a product of at most 100^3
#: multiply-adds and, once K exceeds 384, rounds differently from the
#: blocked kernel the whole product takes (measured on an AVX-512 host,
#: OpenBLAS 0.3.31). For the same reason it sizes Forecaster.predict's
#: units: each unit's cell-input and head products hold at least this
#: many multiply-adds, so its rows keep the whole call's bytes.
_GEMM_SPLIT_WORK = 1 << 23


def matmul_rows(a: np.ndarray, b: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for 2-D a (m, K) and b (K, n), written into out (a new (m, n)
    array if None) and returned; out must be C-contiguous.

    When each half of the output rows holds at least _GEMM_SPLIT_WORK
    multiply-adds and a split may start (see for_blocks), the caller's
    thread computes the first split_point(m) rows and for_blocks' worker
    the rest, each with one np.matmul into its rows of out. Neither splits
    K, so out has the bytes of the whole product."""
    m, k = a.shape
    n = b.shape[1]
    if out is None:
        out = np.empty((m, n))
    if m // 2 * n * k < _GEMM_SPLIT_WORK or not _may_split():
        return np.matmul(a, b, out=out)

    def run(parts: list) -> None:
        for rows in parts:
            np.matmul(a[rows], b, out=out[rows])
    top = split_point(m)
    for_blocks(run, [slice(0, top), slice(top, m)])
    return out


def read_json(path, error: type[Exception], what: str):
    """The JSON value in the UTF-8 file at path. A file that cannot be
    read, is not UTF-8 JSON, or nests too deep for the parser raises
    error, the caller's exception class, with a message naming what the
    file is."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:     # bad UTF-8 or JSON
        raise error(f"malformed {what} {path}: {exc}") from exc


def write_json(path, value, indent: int | None = None) -> None:
    """Write value to path as JSON with sorted keys, on one line, or
    indented by indent spaces."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, sort_keys=True, indent=indent)


def write_csv(path, header: list, rows) -> None:
    """Write the header row, then each of rows, to path as CSV lines in
    csv.writer's default dialect (each line ends in CR LF)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- config schema ---------------------------------------------------------

#: Most float64 values a config may ask for in one model's parameters or
#: one probe chain's arrays: 2^32 values are 32 GiB (Adam keeps two more
#: of each parameter). A config past it (an embed_dim, n_blocks or chain
#: horizon of 2^63, say) is rejected before anything is allocated, rather
#: than failing inside numpy or building blocks without end.
_MAX_VALUES = 1 << 32

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
