"""Microbenchmarks of the library's hot paths (real pytest-benchmark
timing with multiple rounds, unlike the figure regenerations).

These guard the simulator's practicality: a Figure-7 panel is ~60
simulations, so event throughput is what makes the reproduction
interactive."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import resnet50, vgg19
from repro.sim import ClusterConfig, simulate
from repro.sim.engine import Simulator
from repro.strategies import p3
from repro.training.dgc import DGCCompressor, DGCConfig
from repro.training.im2col import im2col


def test_engine_event_throughput(benchmark):
    """Schedule+run 20k chained events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 20_000:
                sim.schedule(1e-6, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run) == 20_000


def test_slicing_throughput(benchmark):
    """Slice VGG-19 (2874 slices) repeatedly."""
    model = vgg19()
    slices = benchmark(lambda: p3().plan(model, 4, np.random.default_rng(0)))
    assert len(slices) > 2500


def test_resnet50_simulation_wallclock(benchmark):
    """One full ResNet-50 P3 simulation at 4 Gbps (the Figure-7 unit)."""
    cfg = ClusterConfig(n_workers=4, bandwidth_gbps=4.0)

    def run():
        return simulate(resnet50(), p3(), cfg, iterations=4, warmup=1)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.throughput > 0


def test_im2col_throughput(benchmark):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(32, 8, 16, 16))
    cols = benchmark(im2col, x, 3, 1, 1)
    assert cols.shape == (32 * 16 * 16, 8 * 9)


def test_dgc_compression_throughput(benchmark):
    rng = np.random.default_rng(0)
    grads = {f"l{i}": rng.normal(size=10_000) for i in range(10)}
    comp = DGCCompressor(DGCConfig(density=0.01, warmup_epochs=0,
                                   warmup_densities=()))

    def run():
        return comp.compress({k: g.copy() for k, g in grads.items()}, 0.01)

    out = benchmark(run)
    assert len(out) == 10
