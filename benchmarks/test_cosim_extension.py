"""Extension benchmark: four-system time-to-accuracy comparison.

Generalizes the paper's Figure 15 to every system it discusses, on one
co-simulated axis: real training trajectories (exact sync for
baseline/P3, top-k DGC, stale ASGD) placed on wall-clock from the event
simulator at 1 Gbps (the paper's Appendix B.2 network).

Expected shape: baseline and P3 share the accuracy curve but P3's clock
runs faster; DGC iterates fastest but converges below exact sync; ASGD
iterates fast and converges lowest."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cosim import compare_systems, paper_systems
from repro.models import resnet110_cifar
from repro.sim import ClusterConfig
from repro.training import TrainConfig, make_dataset, small_cnn

from conftest import run_once


@pytest.mark.slow  # trains four systems: about a minute on two cores
def test_four_system_time_to_accuracy(benchmark, report):
    dataset = make_dataset(n_train=2048, n_val=512, seed=0)
    sim_model = resnet110_cifar(batch_size=16)
    cluster = ClusterConfig(n_workers=4, bandwidth_gbps=1.0, seed=0)
    cfg = TrainConfig(n_workers=4, epochs=16, batch_size=64, lr=0.05, seed=3)

    def run():
        return compare_systems(
            paper_systems(dgc_density=0.01),
            lambda: small_cnn(np.random.default_rng(2)),
            dataset, sim_model, cluster, cfg)

    out = run_once(benchmark, run)
    print()
    print(f"{'system':>10} {'iter (ms)':>10} {'final acc':>10} "
          f"{'time to 80% (s)':>16}")
    for name, res in out.items():
        t80 = res.time_to_accuracy(0.80)
        t80_s = f"{t80:.1f}" if t80 is not None else "never"
        print(f"{name:>10} {res.iteration_time_mean * 1000:>10.1f} "
              f"{res.final_accuracy:>10.3f} {t80_s:>16}")

    # value semantics: baseline == p3 accuracy, p3 clock faster
    np.testing.assert_array_equal(out["baseline"].val_accuracy,
                                  out["p3"].val_accuracy)
    assert out["p3"].total_time < out["baseline"].total_time
    # exact sync converges highest; ASGD lowest of the sync-quality axis
    assert out["p3"].final_accuracy >= out["dgc"].final_accuracy
    assert out["p3"].final_accuracy > out["asgd"].final_accuracy
    # DGC's compressed pushes iterate fastest at 1 Gbps
    assert out["dgc"].iteration_time_mean < out["baseline"].iteration_time_mean
