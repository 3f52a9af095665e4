"""Numerical gradient checks and behavioural tests for every layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.training.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    MaxPool2D,
    ReLU,
    ResidualBlock,
    Sequential,
)


def numerical_grad_input(layer, x, dy, eps=1e-6):
    """Central-difference d<dy, layer(x)>/dx."""
    grad = np.zeros_like(x)
    flat_x, flat_g = x.ravel(), grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        up = float((layer.forward(x, train=True) * dy).sum())
        flat_x[i] = orig - eps
        down = float((layer.forward(x, train=True) * dy).sum())
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2 * eps)
    return grad


def numerical_grad_param(layer, x, dy, pname, eps=1e-6):
    p = layer.params[pname]
    grad = np.zeros_like(p)
    flat_p, flat_g = p.ravel(), grad.ravel()
    for i in range(flat_p.size):
        orig = flat_p[i]
        flat_p[i] = orig + eps
        up = float((layer.forward(x, train=True) * dy).sum())
        flat_p[i] = orig - eps
        down = float((layer.forward(x, train=True) * dy).sum())
        flat_p[i] = orig
        flat_g[i] = (up - down) / (2 * eps)
    return grad


def check_layer_grads(layer, x, atol=1e-6):
    rng = np.random.default_rng(99)
    y = layer.forward(x, train=True)
    dy = rng.normal(size=y.shape)
    dx = layer.backward(dy)
    np.testing.assert_allclose(dx, numerical_grad_input(layer, x, dy), atol=atol)
    for pname in layer.params:
        np.testing.assert_allclose(
            layer.grads[pname], numerical_grad_param(layer, x, dy, pname),
            atol=atol, err_msg=pname)


def test_dense_gradients(rng):
    layer = Dense(6, 4, rng)
    check_layer_grads(layer, rng.normal(size=(3, 6)))


def test_dense_no_bias(rng):
    layer = Dense(6, 4, rng, bias=False)
    assert "b" not in layer.params
    check_layer_grads(layer, rng.normal(size=(3, 6)))


def test_conv_gradients(rng):
    layer = Conv2D(2, 3, 3, rng, bias=True)
    check_layer_grads(layer, rng.normal(size=(2, 2, 5, 5)))


def test_conv_strided_gradients(rng):
    layer = Conv2D(2, 2, 3, rng, stride=2)
    check_layer_grads(layer, rng.normal(size=(2, 2, 6, 6)))


def test_conv_channel_mismatch(rng):
    layer = Conv2D(3, 4, 3, rng)
    with pytest.raises(ValueError):
        layer.forward(np.zeros((1, 2, 8, 8)))


def test_relu_gradients(rng):
    check_layer_grads(ReLU(), rng.normal(size=(4, 7)) + 0.1)


def test_relu_masks_negative():
    y = ReLU().forward(np.array([[-1.0, 0.5]]))
    np.testing.assert_array_equal(y, [[0.0, 0.5]])


def test_batchnorm_gradients_2d(rng):
    check_layer_grads(BatchNorm(5), rng.normal(size=(8, 5)), atol=1e-5)


def test_batchnorm_gradients_4d(rng):
    check_layer_grads(BatchNorm(3), rng.normal(size=(4, 3, 2, 2)), atol=1e-5)


def test_batchnorm_normalizes_in_train():
    rng = np.random.default_rng(0)
    bn = BatchNorm(4)
    y = bn.forward(rng.normal(loc=5.0, scale=3.0, size=(256, 4)), train=True)
    assert np.abs(y.mean(axis=0)).max() < 1e-8
    assert np.abs(y.std(axis=0) - 1).max() < 1e-2


def test_batchnorm_eval_uses_running_stats():
    rng = np.random.default_rng(0)
    bn = BatchNorm(4)
    for _ in range(200):
        bn.forward(rng.normal(loc=2.0, size=(64, 4)), train=True)
    y = bn.forward(np.full((2, 4), 2.0), train=False)
    assert np.abs(y).max() < 0.2  # ~mean input maps near zero


def test_batchnorm_rejects_3d():
    with pytest.raises(ValueError):
        BatchNorm(4).forward(np.zeros((2, 4, 3)))


def test_maxpool_gradients(rng):
    check_layer_grads(MaxPool2D(2), rng.normal(size=(2, 2, 4, 4)))


def test_maxpool_forward_values():
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    y = MaxPool2D(2).forward(x)
    np.testing.assert_array_equal(y[0, 0], [[5, 7], [13, 15]])


def test_maxpool_tie_routes_gradient_once():
    x = np.ones((1, 1, 2, 2))
    pool = MaxPool2D(2)
    pool.forward(x)
    dx = pool.backward(np.array([[[[4.0]]]]))
    assert dx.sum() == pytest.approx(4.0)
    assert (dx > 0).sum() == 1  # ties broken to a single element


@pytest.mark.parametrize("window, routed", [
    ([[0, 1], [1, 0]], [[0, 1], [0, 0]]),  # anti-diagonal tie
    ([[1, 0], [0, 1]], [[1, 0], [0, 0]]),  # diagonal tie
    ([[2, 2], [2, 2]], [[1, 0], [0, 0]]),  # all equal
], ids=["anti_diagonal", "diagonal", "all_equal"])
def test_maxpool_tie_routes_to_first_max_row_major(window, routed):
    pool = MaxPool2D(2)
    pool.forward(np.array(window, dtype=float)[None, None])
    dx = pool.backward(np.array([[[[3.0]]]]))
    np.testing.assert_array_equal(dx[0, 0], 3.0 * np.array(routed))


def test_maxpool_requires_divisible_dims():
    with pytest.raises(ValueError):
        MaxPool2D(2).forward(np.zeros((1, 1, 5, 4)))


def test_global_avg_pool_gradients(rng):
    check_layer_grads(GlobalAvgPool(), rng.normal(size=(2, 3, 4, 4)))


def test_flatten_round_trip(rng):
    f = Flatten()
    x = rng.normal(size=(2, 3, 4, 4))
    y = f.forward(x)
    assert y.shape == (2, 48)
    np.testing.assert_array_equal(f.backward(y), x)


def test_residual_block_gradients(rng):
    block = ResidualBlock(2, 3, rng, stride=2)
    check_layer_grads(block, rng.normal(size=(2, 2, 4, 4)), atol=1e-5)


def test_residual_block_identity_skip(rng):
    block = ResidualBlock(3, 3, rng, stride=1)
    assert block.proj is None
    check_layer_grads(block, rng.normal(size=(2, 3, 4, 4)), atol=1e-5)


def test_sequential_composes(rng):
    seq = Sequential([Dense(4, 8, rng), ReLU(), Dense(8, 2, rng)])
    check_layer_grads(seq, rng.normal(size=(3, 4)))
    names = [n for n, _ in seq.named_layers()]
    assert names == ["0", "1", "2"]


def test_sequential_nested_naming(rng):
    inner = Sequential([Dense(4, 4, rng)])
    outer = Sequential([inner, ResidualBlock(2, 2, rng)])
    names = [n for n, _ in outer.named_layers()]
    assert "0.0" in names
    assert any(n.startswith("1.conv1") for n in names)


def test_n_params(rng):
    layer = Dense(10, 5, rng)
    assert layer.n_params == 55
