"""Tests for the dense numeric kernel primitives."""

import numpy as np
import pytest

from pslstm.tensorops import (Rng, ShapeError, elementwise, identity,
                              log_sigmoid, matmul, rand_normal, sigmoid)


def test_matmul_hand_example():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0], [6.0]])
    out = matmul(a, b)
    # 1*5 + 2*6 = 17, 3*5 + 4*6 = 39
    assert np.array_equal(out, np.array([[17.0], [39.0]]))


def test_matmul_identity():
    rng = Rng(0)
    a = rng.normal((4, 4))
    assert np.allclose(matmul(a, identity(4)), a)
    assert np.allclose(matmul(identity(4), a), a)


def test_matmul_inner_dim_mismatch():
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3)), np.zeros((4, 2)))


def test_matmul_rejects_vectors():
    with pytest.raises(ShapeError):
        matmul(np.zeros(3), np.zeros((3, 2)))


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
    out = rand_normal(Rng(0), (3, 3), mean=2.5, std=0.0)
    assert np.array_equal(out, np.full((3, 3), 2.5))


def test_rand_normal_negative_std_raises():
    with pytest.raises(ValueError):
        rand_normal(Rng(0), (2,), std=-1.0)


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


def test_elementwise_tanh_oracle():
    out = elementwise("tanh", np.array(1.0))
    assert np.isclose(out, 0.7615941559557649, atol=1e-15)


def test_elementwise_binary_ops():
    a = np.array([2.0, 4.0])
    b = np.array([1.0, 2.0])
    assert np.array_equal(elementwise("add", a, b), [3.0, 6.0])
    assert np.array_equal(elementwise("sub", a, b), [1.0, 2.0])
    assert np.array_equal(elementwise("mul", a, b), [2.0, 8.0])
    assert np.array_equal(elementwise("div", a, b), [2.0, 2.0])
    assert np.array_equal(elementwise("max", a, b), [2.0, 4.0])


def test_elementwise_scalar_broadcast_allowed():
    out = elementwise("mul", np.ones((2, 2)), np.array(3.0))
    assert np.array_equal(out, np.full((2, 2), 3.0))


def test_elementwise_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        elementwise("add", np.zeros((2, 3)), np.zeros((3, 2)))


def test_elementwise_checked_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        elementwise("div", np.ones(2), np.array([1.0, 0.0]))


def test_elementwise_unchecked_div_by_zero_gives_inf():
    with np.errstate(divide="ignore"):
        out = elementwise("div", np.ones(1), np.zeros(1), checked=False)
    assert np.isinf(out[0])


def test_elementwise_unknown_op():
    with pytest.raises(ValueError):
        elementwise("frobnicate", np.ones(1))
