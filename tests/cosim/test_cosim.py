"""Tests for the co-simulation layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cosim import SystemSpec, compare_systems, cosimulate, paper_systems
from repro.models import resnet110_cifar
from repro.sim import ClusterConfig
from repro.strategies import baseline as baseline_strategy
from repro.strategies import p3 as p3_strategy
from repro.training import TrainConfig, make_dataset, mlp
from repro.training.data import SyntheticSpec


@pytest.fixture(scope="module")
def setup():
    spec = SyntheticSpec(n_classes=4, image_size=8, channels=1, noise=1.0)
    dataset = make_dataset(n_train=128, n_val=64, spec=spec, seed=0)
    sim_model = resnet110_cifar(batch_size=8)
    cluster = ClusterConfig(n_workers=4, bandwidth_gbps=1.0, seed=0)
    cfg = TrainConfig(n_workers=4, epochs=3, batch_size=32, lr=0.05, seed=5)
    factory = lambda: mlp(np.random.default_rng(2), in_dim=64, hidden=16,
                          n_classes=4)
    return dataset, sim_model, cluster, cfg, factory


def test_paper_systems_listing():
    systems = paper_systems()
    assert [s.name for s in systems] == ["baseline", "p3", "dgc", "asgd"]
    assert systems[2].dgc_config is not None


def test_cosimulate_structure(setup):
    dataset, sim_model, cluster, cfg, factory = setup
    sys_ = SystemSpec("p3", "exact", p3_strategy())
    res = cosimulate(sys_, factory(), dataset, sim_model, cluster, cfg)
    assert len(res.val_accuracy) == cfg.epochs
    assert len(res.epoch_end_times) == cfg.epochs
    assert np.all(np.diff(res.epoch_end_times) > 0)
    assert res.total_time == pytest.approx(
        res.epoch_end_times[-1])
    assert res.iteration_time_mean > 0


def test_same_method_same_accuracy_different_clock(setup):
    """baseline and P3 share value semantics: identical accuracy curves,
    but P3's clock runs faster under constrained bandwidth."""
    dataset, sim_model, cluster, cfg, factory = setup
    base = cosimulate(SystemSpec("baseline", "exact", baseline_strategy()),
                      factory(), dataset, sim_model, cluster, cfg)
    fast = cosimulate(SystemSpec("p3", "exact", p3_strategy()),
                      factory(), dataset, sim_model, cluster, cfg)
    np.testing.assert_array_equal(base.val_accuracy, fast.val_accuracy)
    assert fast.total_time <= base.total_time * 1.001


def test_time_to_accuracy(setup):
    dataset, sim_model, cluster, cfg, factory = setup
    res = cosimulate(SystemSpec("p3", "exact", p3_strategy()),
                     factory(), dataset, sim_model, cluster, cfg)
    t = res.time_to_accuracy(0.0)
    assert t == pytest.approx(res.epoch_end_times[0])
    assert res.time_to_accuracy(1.01) is None


def test_compare_systems(setup):
    dataset, sim_model, cluster, cfg, factory = setup
    systems = paper_systems(dgc_density=0.1)
    out = compare_systems(systems, factory, dataset, sim_model, cluster, cfg)
    assert set(out) == {"baseline", "p3", "dgc", "asgd"}
    # DGC moves fewer bytes: its iterations are no slower than baseline's.
    assert out["dgc"].iteration_time_mean <= out["baseline"].iteration_time_mean * 1.01
    # ASGD has no barrier: no slower than synchronous baseline.
    assert out["asgd"].iteration_time_mean <= out["baseline"].iteration_time_mean * 1.01
