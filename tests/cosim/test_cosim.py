"""Tests for the co-simulation layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import compare_systems
from repro.cosim import paper_systems
from repro.models import resnet110_cifar
from repro.sim import ClusterConfig
from repro.training import TrainConfig, make_dataset, mlp
from repro.training.data import SyntheticSpec

EPOCHS = 3


@pytest.fixture(scope="module")
def fig():
    """All four systems on a tiny dataset and network."""
    spec = SyntheticSpec(n_classes=4, image_size=8, channels=1, noise=1.0)
    dataset = make_dataset(n_train=128, n_val=64, spec=spec, seed=0)
    cluster = ClusterConfig(n_workers=4, bandwidth_gbps=1.0, seed=0)
    cfg = TrainConfig(n_workers=4, epochs=EPOCHS, batch_size=32, lr=0.05, seed=5)
    factory = lambda: mlp(np.random.default_rng(2), in_dim=64, hidden=16,
                          n_classes=4)
    return compare_systems(paper_systems(dgc_density=0.1), factory, dataset,
                           resnet110_cifar(batch_size=8), cluster, cfg)


def test_paper_systems_listing():
    systems = paper_systems()
    assert [s.name for s in systems] == ["baseline", "p3", "dgc", "asgd"]
    assert systems[2].dgc_config is not None


def test_cosimulate_structure(fig):
    """One point per epoch, on a clock that only moves forward."""
    for series in fig.series:
        assert len(series.y) == EPOCHS
        assert np.all(np.diff(series.x) > 0)
        assert fig.notes[f"{series.label}_iter_time_s"] > 0
        assert fig.notes[f"{series.label}_final"] == round(float(series.y[-1]), 4)


def test_same_method_same_accuracy_different_clock(fig):
    """baseline and P3 share value semantics: identical accuracy curves,
    but P3's clock runs faster under constrained bandwidth."""
    base, fast = fig.get("baseline"), fig.get("p3")
    np.testing.assert_array_equal(base.y, fast.y)
    assert fast.x[-1] <= base.x[-1] * 1.001


def test_time_to_accuracy(fig):
    """The clock at the first epoch that reaches 80 %, where one does."""
    for series in fig.series:
        hits = np.nonzero(series.y >= 0.8)[0]
        note = fig.notes.get(f"{series.label}_time_to_80pct_s")
        assert note == (round(float(series.x[hits[0]]), 2) if len(hits) else None)


def test_compare_systems(fig):
    assert fig.labels == ["baseline", "p3", "dgc", "asgd"]
    iter_time = {label: fig.notes[f"{label}_iter_time_s"] for label in fig.labels}
    # DGC moves fewer bytes: its iterations are no slower than baseline's.
    assert iter_time["dgc"] <= iter_time["baseline"] * 1.01
    # ASGD has no barrier: no slower than synchronous baseline.
    assert iter_time["asgd"] <= iter_time["baseline"] * 1.01
