"""Microbenchmarks of the training substrate's hot paths (real
pytest-benchmark timing with multiple rounds, unlike the figure
regenerations).

Only what nothing else times: the simulator's own hot paths are
``python3 -m bench`` layer metrics (``engine.chain_events_per_s``,
``plan.build_ms``, ``fig7_sweep.wall_s``)."""

from __future__ import annotations

import numpy as np

from repro.training.dgc import DGCCompressor, DGCConfig
from repro.training.im2col import im2col


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
