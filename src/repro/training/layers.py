"""Neural-network layers with hand-written backprop (pure numpy).

The substrate exists so the convergence experiments (the paper's
Figures 11 and 15) run *real* optimization: DGC's sparsification error
and ASGD's staleness must act on actual gradients, not a timing model.
Layers follow a simple contract:

* ``forward(x, train)`` caches what backward needs;
* ``backward(dy)`` returns ``dx`` and fills ``grads`` (same keys as
  ``params``);
* parameters and gradients are plain ``{name: ndarray}`` dicts so the
  data-parallel harness can flatten, shard, compress and swap them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .im2col import col2im, conv_out_size, im2col


class Layer:
    """Base class; parameter-free layers leave ``params`` empty."""

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def zero_grads(self) -> None:
        for k in self.params:
            self.grads[k] = np.zeros_like(self.params[k])


def he_init(rng: np.random.Generator, shape: Tuple[int, ...], fan_in: int) -> np.ndarray:
    """He-normal initialization (appropriate for ReLU networks)."""
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float64)


class Dense(Layer):
    """Affine layer: y = x @ W + b."""

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator,
                 bias: bool = True) -> None:
        super().__init__()
        self.params["W"] = he_init(rng, (fan_in, fan_out), fan_in)
        if bias:
            self.params["b"] = np.zeros(fan_out)
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._x = x
        y = x @ self.params["W"]
        if "b" in self.params:
            y = y + self.params["b"]
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward before forward"
        self.grads["W"] = self._x.T @ dy
        if "b" in self.params:
            self.grads["b"] = dy.sum(axis=0)
        return dy @ self.params["W"].T


class Conv2D(Layer):
    """k x k convolution on (N, C, H, W) via im2col."""

    def __init__(self, cin: int, cout: int, k: int, rng: np.random.Generator,
                 stride: int = 1, pad: Optional[int] = None, bias: bool = False) -> None:
        super().__init__()
        self.cin, self.cout, self.k = cin, cout, k
        self.stride = stride
        self.pad = (k // 2) if pad is None else pad
        fan_in = cin * k * k
        self.params["W"] = he_init(rng, (cout, cin, k, k), fan_in)
        if bias:
            self.params["b"] = np.zeros(cout)
        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.cin:
            raise ValueError(f"expected {self.cin} input channels, got {c}")
        oh, ow = conv_out_size(h, w, self.k, self.stride, self.pad)
        cols = im2col(x, self.k, self.stride, self.pad)
        self._cols, self._x_shape = cols, x.shape
        w_mat = self.params["W"].reshape(self.cout, -1)
        y = cols @ w_mat.T
        if "b" in self.params:
            y = y + self.params["b"]
        return y.reshape(n, oh, ow, self.cout).transpose(0, 3, 1, 2)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._cols is not None and self._x_shape is not None
        n, cout, oh, ow = dy.shape
        dy_mat = dy.transpose(0, 2, 3, 1).reshape(-1, cout)
        self.grads["W"] = (dy_mat.T @ self._cols).reshape(self.params["W"].shape)
        if "b" in self.params:
            self.grads["b"] = dy_mat.sum(axis=0)
        dcols = dy_mat @ self.params["W"].reshape(cout, -1)
        return col2im(dcols, self._x_shape, self.k, self.stride, self.pad)


class ReLU(Layer):
    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return dy * self._mask


class BatchNorm(Layer):
    """Batch normalization over (N,) or (N, H, W) per channel.

    Accepts (N, C) or (N, C, H, W) inputs; keeps running statistics for
    evaluation mode.
    """

    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5) -> None:
        super().__init__()
        self.params["gamma"] = np.ones(channels)
        self.params["beta"] = np.zeros(channels)
        self.momentum = momentum
        self.eps = eps
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache: Optional[Tuple] = None

    @staticmethod
    def _flatten(x: np.ndarray) -> Tuple[np.ndarray, Optional[Tuple[int, ...]]]:
        if x.ndim == 2:
            return x, None
        if x.ndim == 4:
            n, c, h, w = x.shape
            return x.transpose(0, 2, 3, 1).reshape(-1, c), (n, c, h, w)
        raise ValueError(f"BatchNorm expects 2D or 4D input, got {x.ndim}D")

    @staticmethod
    def _unflatten(x2: np.ndarray, shape: Optional[Tuple[int, ...]]) -> np.ndarray:
        if shape is None:
            return x2
        n, c, h, w = shape
        return x2.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        x2, shape = self._flatten(x)
        if train:
            mean = x2.mean(axis=0)
            var = x2.var(axis=0)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x2 - mean) * inv_std
        self._cache = (xhat, inv_std, shape)
        return self._unflatten(xhat * self.params["gamma"] + self.params["beta"], shape)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        xhat, inv_std, shape = self._cache
        dy2, _ = self._flatten(dy)
        m = dy2.shape[0]
        self.grads["gamma"] = (dy2 * xhat).sum(axis=0)
        self.grads["beta"] = dy2.sum(axis=0)
        dxhat = dy2 * self.params["gamma"]
        dx2 = (inv_std / m) * (
            m * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
        )
        return self._unflatten(dx2, shape)


class MaxPool2D(Layer):
    """2x2 (by default) max pooling with stride == window."""

    def __init__(self, k: int = 2) -> None:
        super().__init__()
        self.k = k
        self._cache: Optional[Tuple] = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.k
        if h % k or w % k:
            raise ValueError(f"spatial dims ({h},{w}) not divisible by pool size {k}")
        xr = x.reshape(n, c, h // k, k, w // k, k)
        y = xr.max(axis=(3, 5))
        # Each window's gradient goes to exactly one maximum: the first
        # in row-major order, the argmax of the flattened window.
        windows = xr.transpose(0, 1, 2, 4, 3, 5).reshape(
            n, c, h // k, w // k, k * k)
        first = windows.argmax(axis=-1)[..., None] == np.arange(k * k)
        mask = first.reshape(n, c, h // k, w // k, k, k).transpose(
            0, 1, 2, 4, 3, 5)
        self._cache = (mask, x.shape)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._cache is not None
        mask, x_shape = self._cache
        # mask has the windowed shape (n, c, h/k, k, w/k, k), the exact
        # decomposition used in forward, so a plain reshape inverts it.
        dyr = dy[:, :, :, None, :, None] * mask
        return dyr.reshape(x_shape)


class GlobalAvgPool(Layer):
    """Average over spatial dims: (N, C, H, W) -> (N, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._shape is not None
        n, c, h, w = self._shape
        return np.broadcast_to(dy[:, :, None, None], self._shape) / (h * w)


class Flatten(Layer):
    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        assert self._shape is not None
        return dy.reshape(self._shape)


class Sequential(Layer):
    """Runs sub-layers in order; exposes their parameters with prefixes."""

    def __init__(self, layers: List[Layer]) -> None:
        super().__init__()
        self.layers = layers

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    def named_layers(self) -> List[Tuple[str, Layer]]:
        out: List[Tuple[str, Layer]] = []
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Sequential):
                out.extend((f"{i}.{n}", sub) for n, sub in layer.named_layers())
            elif isinstance(layer, ResidualBlock):
                out.extend((f"{i}.{n}", sub) for n, sub in layer.named_layers())
            else:
                out.append((str(i), layer))
        return out


class ResidualBlock(Layer):
    """Basic residual block: conv-bn-relu-conv-bn (+ projection) + relu."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator,
                 stride: int = 1) -> None:
        super().__init__()
        self.conv1 = Conv2D(cin, cout, 3, rng, stride=stride)
        self.bn1 = BatchNorm(cout)
        self.relu1 = ReLU()
        self.conv2 = Conv2D(cout, cout, 3, rng)
        self.bn2 = BatchNorm(cout)
        self.relu_out = ReLU()
        if stride != 1 or cin != cout:
            self.proj: Optional[Conv2D] = Conv2D(cin, cout, 1, rng, stride=stride, pad=0)
            self.proj_bn: Optional[BatchNorm] = BatchNorm(cout)
        else:
            self.proj = None
            self.proj_bn = None

    def _sublayers(self) -> List[Tuple[str, Layer]]:
        subs: List[Tuple[str, Layer]] = [
            ("conv1", self.conv1), ("bn1", self.bn1),
            ("conv2", self.conv2), ("bn2", self.bn2),
        ]
        if self.proj is not None:
            assert self.proj_bn is not None
            subs += [("proj", self.proj), ("proj_bn", self.proj_bn)]
        return subs

    def named_layers(self) -> List[Tuple[str, Layer]]:
        return self._sublayers()

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        out = self.conv1.forward(x, train)
        out = self.bn1.forward(out, train)
        out = self.relu1.forward(out, train)
        out = self.conv2.forward(out, train)
        out = self.bn2.forward(out, train)
        if self.proj is not None:
            assert self.proj_bn is not None
            skip = self.proj_bn.forward(self.proj.forward(x, train), train)
        else:
            skip = x
        return self.relu_out.forward(out + skip, train)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy = self.relu_out.backward(dy)
        d_main = self.bn2.backward(dy)
        d_main = self.conv2.backward(d_main)
        d_main = self.relu1.backward(d_main)
        d_main = self.bn1.backward(d_main)
        d_main = self.conv1.backward(d_main)
        if self.proj is not None:
            assert self.proj_bn is not None
            d_skip = self.proj.backward(self.proj_bn.backward(dy))
        else:
            d_skip = dy
        return d_main + d_skip
