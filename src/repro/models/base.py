"""Model descriptors used by the cluster simulator.

Throughput in the paper is a pure function of (a) each layer's parameter
byte count, (b) the order layers are produced in backprop and consumed in
the next forward pass, and (c) per-layer compute durations.  Actual
weight *values* never matter, so models are described analytically as a
sequence of :class:`LayerSpec` entries — one per parameter array, which
is the granularity MXNet's KVStore keys use and the "layer index" axis of
the paper's Figure 5.

Per-layer compute times are derived from analytic FLOP estimates, scaled
so that a worker's compute-bound throughput matches the paper's
high-bandwidth asymptote for that model (the calibration described in
DESIGN.md Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

BYTES_PER_PARAM = 4  # fp32 gradients/parameters, as in the paper


@dataclass(frozen=True)
class LayerSpec:
    """One parameter array (a KVStore key) in forward-pass order."""

    name: str
    params: int
    flops: float  # analytic forward FLOPs per sample attributable to this array

    def __post_init__(self) -> None:
        if self.params <= 0:
            raise ValueError(f"layer {self.name!r}: params must be positive")
        if self.flops < 0:
            raise ValueError(f"layer {self.name!r}: flops must be non-negative")

    @property
    def bytes(self) -> int:
        return self.params * BYTES_PER_PARAM


@dataclass(frozen=True)
class ModelSpec:
    """A DNN as seen by the synchronization layer.

    Parameters
    ----------
    name:
        Model identifier (e.g. ``"vgg19"``).
    layers:
        Parameter arrays in *forward* order; index 0 is consumed first in
        the next iteration and therefore has the highest P3 priority.
    batch_size:
        Per-worker mini-batch size.
    samples_per_sec:
        Per-worker compute-bound throughput (samples/s) on the reference
        GPU — calibrated from the paper's high-bandwidth plateaus.
    sample_unit:
        ``"images"`` or ``"sentences"`` (for reporting).
    jitter_sigma:
        Lognormal sigma of per-iteration compute-time noise.  Nonzero for
        Sockeye, whose variable sequence lengths make worker iteration
        times uneven (Section 5.5 of the paper).
    forward_fraction:
        Fraction of iteration compute spent in the forward pass (backward
        is roughly twice the forward cost for these models).
    """

    name: str
    layers: Tuple[LayerSpec, ...]
    batch_size: int
    samples_per_sec: float
    sample_unit: str = "images"
    jitter_sigma: float = 0.0
    forward_fraction: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("model must have at least one layer")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.samples_per_sec <= 0:
            raise ValueError("samples_per_sec must be positive")
        if not (0.0 < self.forward_fraction < 1.0):
            raise ValueError("forward_fraction must be in (0, 1)")

    # ------------------------------------------------------------------
    # Introspection (Figure 5)
    # ------------------------------------------------------------------
    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def total_params(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def total_bytes(self) -> int:
        return self.total_params * BYTES_PER_PARAM

    def param_counts(self) -> np.ndarray:
        """Per-layer parameter counts in forward order (Figure 5 data)."""
        return np.array([l.params for l in self.layers], dtype=np.int64)

    def layer_bytes(self) -> np.ndarray:
        return self.param_counts() * BYTES_PER_PARAM

    @property
    def heaviest_layer(self) -> int:
        """Forward index of the largest parameter array."""
        return int(np.argmax(self.param_counts()))

    def param_fraction(self, index: int) -> float:
        """Share of all parameters held by layer ``index``."""
        return self.layers[index].params / self.total_params

    # ------------------------------------------------------------------
    # Compute timeline
    # ------------------------------------------------------------------
    def iteration_compute_time(self, compute_scale: float = 1.0) -> float:
        """Seconds of pure compute per iteration on one worker."""
        if compute_scale <= 0:
            raise ValueError("compute_scale must be positive")
        return self.batch_size / (self.samples_per_sec * compute_scale)

    def _flop_weights(self) -> np.ndarray:
        w = np.array([l.flops for l in self.layers], dtype=float)
        if w.sum() <= 0:
            w = np.array([l.params for l in self.layers], dtype=float)
        return w / w.sum()

    def forward_times(self, compute_scale: float = 1.0) -> np.ndarray:
        """Per-layer forward durations, forward order."""
        total = self.iteration_compute_time(compute_scale) * self.forward_fraction
        return self._flop_weights() * total

    def backward_times(self, compute_scale: float = 1.0) -> np.ndarray:
        """Per-layer backward durations, forward order (execute reversed)."""
        total = self.iteration_compute_time(compute_scale) * (1.0 - self.forward_fraction)
        return self._flop_weights() * total

    def describe(self) -> str:
        """Human-readable summary."""
        lines = [
            f"{self.name}: {self.n_layers} parameter arrays, "
            f"{self.total_params / 1e6:.2f} M params "
            f"({self.total_bytes / 1e6:.1f} MB fp32)",
            f"  batch={self.batch_size}, compute-bound {self.samples_per_sec:.1f} "
            f"{self.sample_unit}/s/worker",
            f"  heaviest array: index {self.heaviest_layer} "
            f"({self.layers[self.heaviest_layer].name}, "
            f"{self.param_fraction(self.heaviest_layer) * 100:.1f}% of parameters)",
        ]
        return "\n".join(lines)


def conv_params(k: int, cin: int, cout: int, bias: bool = False) -> int:
    """Parameter count of a k x k convolution."""
    return k * k * cin * cout + (cout if bias else 0)


def conv_flops(k: int, cin: int, cout: int, h_out: int, w_out: int) -> float:
    """Multiply-accumulate FLOPs of a k x k convolution on an h x w output."""
    return 2.0 * k * k * cin * cout * h_out * w_out


def dense_params(fan_in: int, fan_out: int, bias: bool = True) -> int:
    return fan_in * fan_out + (fan_out if bias else 0)


def dense_flops(fan_in: int, fan_out: int) -> float:
    return 2.0 * fan_in * fan_out


def make_layers(entries: Iterable[Tuple[str, int, float]]) -> Tuple[LayerSpec, ...]:
    """Build a layer tuple from (name, params, flops) triples."""
    return tuple(LayerSpec(name, params, flops) for name, params, flops in entries)
