"""Tests for the dense numeric kernel primitives."""

import numpy as np
import pytest

from pslstm.tensorops import Rng, log_sigmoid, sigmoid


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


def test_log_sigmoid_no_overflow_for_large_negative():
    out = log_sigmoid(np.array(-1e4))
    assert np.isclose(out, -1e4)
