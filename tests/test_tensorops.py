"""Tests for the dense numeric kernel primitives."""

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Literal
from unittest import mock

import numpy as np
import pytest

import pslstm
from pslstm import tensorops
from pslstm.tensorops import (AtLeast1, Positive, Rng, check_fields,
                              for_blocks, from_dict, log_sigmoid, row_slices,
                              sigmoid)


def test_rng_reproducible():
    a = Rng(123).normal((5, 7))
    b = Rng(123).normal((5, 7))
    assert np.array_equal(a, b)


def test_rng_seeds_differ():
    a = Rng(1).normal((100,))
    b = Rng(2).normal((100,))
    assert not np.array_equal(a, b)


def test_rng_spawn_deterministic_and_independent():
    r = Rng(7)
    a = r.spawn(3).normal((50,))
    b = Rng(7).spawn(3).normal((50,))
    c = r.spawn(4).normal((50,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rand_normal_zero_std_is_constant():
    out = Rng(0).normal((3, 3), mean=2.5, std=0.0)
    assert np.array_equal(out, np.full((3, 3), 2.5))


def test_rand_normal_negative_std_raises():
    with pytest.raises(ValueError):
        Rng(0).normal((2,), std=-1.0)


def test_rand_normal_moments():
    x = Rng(42).normal((200_000,), mean=1.0, std=2.0)
    assert abs(x.mean() - 1.0) < 0.02
    assert abs(x.std() - 2.0) < 0.02


def test_permutation_is_a_permutation():
    p = Rng(5).permutation(100)
    assert sorted(p.tolist()) == list(range(100))


def test_sigmoid_values():
    assert sigmoid(np.array(0.0)) == 0.5
    assert np.isclose(sigmoid(np.array(2.0)), 1.0 / (1.0 + np.exp(-2.0)))


def test_sigmoid_saturates_without_warning():
    with np.errstate(over="raise"):
        out = sigmoid(np.array([-1000.0, 1000.0]))
    assert out[0] == 0.0
    assert out[1] == 1.0


def test_sigmoid_matches_branchwise_exp_form():
    # the exp(-|x|) form the tanh form replaced, evaluated branch by branch
    x = np.linspace(-40.0, 40.0, 80_001)
    ex = np.exp(-np.abs(x))
    reference = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    assert np.max(np.abs(sigmoid(x) - reference)) <= 1e-15


def test_log_sigmoid_matches_log_of_sigmoid():
    x = np.linspace(-30, 30, 201)
    assert np.allclose(log_sigmoid(x), np.log(sigmoid(x)), atol=1e-12)


def test_log_sigmoid_in_place_is_the_allocating_expression():
    x = np.concatenate([np.linspace(-800.0, 800.0, 4001),
                        [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan,
                         -np.nan]])
    want = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
    assert log_sigmoid(x).tobytes() == want.tobytes()
    a, work = x.copy(), np.empty_like(x)
    assert log_sigmoid(a, out=a, work=work) is a
    assert a.tobytes() == want.tobytes()


def test_log_sigmoid_no_overflow_for_large_negative():
    out = log_sigmoid(np.array(-1e4))
    assert np.isclose(out, -1e4)


# -- config schema ------------------------------------------------------------

@dataclass
class Inner:
    flag: bool = True

    def __post_init__(self):
        check_fields(self)


@dataclass
class Outer:
    n: int = 1
    x: float = 0.5
    bound: float | None = None
    mode: Literal["a", "b"] = "a"
    inner: Inner = field(default_factory=Inner)

    def __post_init__(self):
        check_fields(self)


def test_check_fields_accepts_numpy_scalars_and_ints_as_reals():
    cfg = Outer(n=np.int64(3), x=2, bound=np.float32(0.25))
    assert cfg.n == 3 and cfg.x == 2 and cfg.bound == 0.25


@pytest.mark.parametrize("kwargs, error", [
    (dict(n=True), TypeError), (dict(n=2.0), TypeError),
    (dict(n=None), TypeError), (dict(x=False), TypeError),
    (dict(x="0.5"), TypeError), (dict(x=float("nan")), ValueError),
    (dict(bound=np.inf), ValueError), (dict(bound="x"), TypeError),
    (dict(mode="c"), ValueError),
    (dict(inner={"flag": True}), TypeError),
    (dict(x=10**400), ValueError), (dict(bound=-10**309), ValueError),
])
def test_check_fields_rejects(kwargs, error):
    with pytest.raises(error):
        Outer(**kwargs)


def test_check_fields_takes_an_int_that_fits_a_float():
    # only an int beyond the float range is rejected, not merely a large one
    assert Outer(x=10**308).x == 10**308
    assert Outer(bound=-(2**1023)).bound == -(2**1023)
    with pytest.raises(ValueError, match="does not fit a finite float"):
        Outer(x=2**1024)


def test_check_fields_bool_takes_only_a_bool():
    with pytest.raises(TypeError):
        Inner(flag=1)
    with pytest.raises(TypeError):
        Inner(flag="false")


@dataclass
class Ranged:
    n: AtLeast1 = 1
    rate: Annotated[float, (">=", 0), ("<", 1)] = 0.5
    scale: Positive | None = None
    pick: Literal["a", "b"] | None = None

    __post_init__ = check_fields


@pytest.mark.parametrize("kwargs", [
    dict(n=1), dict(n=np.int64(1)), dict(n=np.uint64(2**64 - 1)),
    dict(n=np.uint8(7)), dict(rate=0), dict(rate=-0.0), dict(rate=0.999),
    dict(rate=np.float32(0.5)), dict(scale=5e-324), dict(scale=np.int8(2)),
    dict(scale=None), dict(pick="b"), dict(pick=None),
])
def test_check_fields_takes_a_value_in_the_annotated_range(kwargs):
    assert Ranged(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(n=0), "n must be >= 1, got 0"),
    (dict(n=np.int64(0)), "n must be >= 1"),
    (dict(n=np.uint8(0)), "n must be >= 1"), (dict(n=-(2**70)), ">= 1"),
    (dict(rate=-5e-324), "rate must be >= 0"), (dict(rate=1), "rate must be < 1"),
    (dict(rate=np.float64(1.0)), "rate must be < 1"),
    (dict(scale=0.0), "scale must be > 0"), (dict(scale=-0.0), "> 0"),
    (dict(scale=np.float32(-0.0)), "> 0"), (dict(scale=np.int64(0)), "> 0"),
    (dict(pick="c"), "pick must be one of"),
])
def test_check_fields_rejects_a_value_outside_the_annotated_range(kwargs,
                                                                  message):
    with pytest.raises(ValueError, match=message):
        Ranged(**kwargs)


def test_from_dict_builds_nested_and_rejects_unknown_keys():
    assert from_dict(Outer, {"n": 2, "inner": {"flag": False}}) \
        == Outer(n=2, inner=Inner(flag=False))
    with pytest.raises(ValueError, match="unknown Inner keys"):
        from_dict(Outer, {"inner": {"flg": False}})
    with pytest.raises(TypeError):
        from_dict(Outer, [1])


# -- row blocks ---------------------------------------------------------------

@pytest.mark.parametrize("shape", [(1,), (70000,), (300, 250),
                                   (3, 40000), (1344, 21, 128), (0, 5)])
def test_row_slices_cover_the_rows_in_budget_sized_blocks(shape):
    slices = row_slices(shape)
    covered = [i for sl in slices for i in range(shape[0])[sl]]
    assert covered == list(range(shape[0]))
    row = int(np.prod(shape[1:]))
    for sl in slices:
        rows = sl.stop - sl.start
        # at most the budget, unless one row alone is wider than it
        assert rows * row <= tensorops._CHUNK or rows == 1
    # every block but the tail is full
    assert len({sl.stop - sl.start for sl in slices[:-1]}) <= 1


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_ahead_draws_the_bytes_at_offset_n_and_leaves_the_stream(n):
    source, whole = Rng(11), Rng(11)
    want = whole.uniform((n + 20,))
    assert source.ahead(n).uniform((20,)).tobytes() == want[n:].tobytes()
    # the source has not moved
    assert source.uniform((n + 20,)).tobytes() == want.tobytes()


@pytest.mark.parametrize("int32_first", [False, True],
                         ids=["fresh", "buffered_half"])
@pytest.mark.parametrize("n", [0, 5, 1000])
def test_skip_leaves_the_stream_where_drawing_n_values_does(n, int32_first):
    skipped, drawn = Rng(12), Rng(12)
    if int32_first:
        for rng in (skipped, drawn):
            rng._gen.integers(0, 2**32, dtype=np.uint32)
    skipped.skip(n)
    drawn.uniform((n,))
    # the buffered half of a 64-bit output included
    assert skipped._gen.bit_generator.state == drawn._gen.bit_generator.state
    assert skipped.uniform((4,)).tobytes() == drawn.uniform((4,)).tobytes()


# -- two halves on two CPUs ---------------------------------------------------

def record_parts(blocks, cpus, min_blocks=2):
    """The (part, ran on the caller's thread) pairs of one for_blocks call
    seeing cpus CPUs, in the order the parts ended."""
    parts, lock = [], threading.Lock()
    caller = threading.get_ident()

    def fn(part):
        with lock:
            parts.append((list(part), threading.get_ident() == caller))
    with mock.patch.object(tensorops, "_cpus", lambda: cpus):
        for_blocks(fn, blocks, min_blocks)
    return parts


@pytest.mark.parametrize("n_blocks, cpus, min_blocks", [
    (0, 2, 2), (1, 2, 2), (5, 1, 2), (3, 2, 4)])
def test_for_blocks_is_a_plain_loop_below_min_blocks_or_two_cpus(
        n_blocks, cpus, min_blocks):
    blocks = list(range(n_blocks))
    assert record_parts(blocks, cpus, min_blocks) == [(blocks, True)]


@pytest.mark.parametrize("n_blocks, min_blocks, first", [
    (2, 2, 1), (5, 2, 3), (6, 2, 3), (4, 4, 2)])
def test_for_blocks_runs_the_second_half_on_a_worker(n_blocks, min_blocks,
                                                     first):
    blocks = list(range(n_blocks))
    parts = record_parts(blocks, 2, min_blocks)
    assert sorted(parts) == [(blocks[:first], True), (blocks[first:], False)]
    assert tensorops.split_point(n_blocks) == first


@pytest.mark.parametrize("raising", ["caller", "worker", "both"])
def test_for_blocks_waits_for_both_halves_when_one_raises(raising):
    # the half that does not raise sleeps first: the call still returns
    # only once it has ended, and raises the caller's exception if the
    # caller's half raised (the one a plain loop meets first)
    ended = []

    def fn(part):
        if part[0] == 0 and raising in ("caller", "both"):
            raise KeyError("caller")
        if part[0] == 2 and raising in ("worker", "both"):
            raise LookupError("worker")
        time.sleep(0.2)
        ended.append(part[0])
    with mock.patch.object(tensorops, "_cpus", lambda: 2):
        with pytest.raises(LookupError) as raised:
            for_blocks(fn, [0, 1, 2, 3])
    assert raised.type is (LookupError if raising == "worker" else KeyError)
    assert ended == {"caller": [2], "worker": [0], "both": []}[raising]


def test_for_blocks_runs_the_worker_half_under_the_callers_errstate():
    seen = {}

    def fn(part):
        seen[part[0]] = np.geterr()["over"]
        if part[0] == 1:
            np.exp(np.full(4, 1000.0))
    with mock.patch.object(tensorops, "_cpus", lambda: 2):
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                for_blocks(fn, [0, 1])
        assert seen == {0: "raise", 1: "raise"}
        with np.errstate(over="ignore"):
            for_blocks(fn, [0, 1])
        assert seen == {0: "ignore", 1: "ignore"}


def run_script(script):
    src = str(Path(pslstm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    return subprocess.run([sys.executable, "-c", script], env=env, text=True,
                          capture_output=True, check=True, timeout=120).stdout


def test_only_a_split_loads_concurrent_futures():
    # sinusoid_tiny's training step and predict take one block and one
    # chunk everywhere: no worker, and concurrent.futures is not imported
    out = run_script("""
import sys
import numpy as np
from pslstm import tensorops
from pslstm.model import Forecaster, ModelConfig
from pslstm.training import AdamState, TrainConfig, adam_step
config = ModelConfig(lookback=96, horizon=24, n_channels=1, patch_size=8,
                     embed_dim=16, dropout_rate=0.1)
model = Forecaster(config, seed=0)
x = tensorops.Rng(1).normal((64, 96, 1))
yhat, tape = model.forward(x, training=True, dropout_rng=tensorops.Rng(2))
grads = model.backward(tape, np.ones_like(yhat))
adam_step(model.params, grads, AdamState(model.params), TrainConfig())
model.predict(x)
print("concurrent.futures" in sys.modules, tensorops._worker is None)
tensorops._cpus = lambda: 2
tensorops.for_blocks(lambda part: None, [0, 1])
print("concurrent.futures" in sys.modules, tensorops._worker is None)
""")
    assert out.split() == ["False", "True", "True", "False"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_splits_on_a_worker_of_its_own():
    # the parent's executor has no thread in a forked child; the child's
    # first split must make its own instead of waiting forever
    out = run_script("""
import os, signal, threading
from pslstm import tensorops
tensorops._cpus = lambda: 2
names = []
run = lambda part: names.append(threading.current_thread().name)
tensorops.for_blocks(run, [0, 1])
pid = os.fork()
if pid == 0:
    signal.alarm(60)        # a child that hangs ends itself
    names.clear()
    tensorops.for_blocks(run, [0, 1])
    os._exit(0 if len(names) == 2 else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
""")
    assert out.strip() == "0"
