"""End-to-end functional equivalence: training through the KVStore data
plane matches the reference harness, and P3's reordering is invisible."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kvstore import train_with_store
from repro.placement import DEFAULT_SLICE_PARAMS
from repro.training import TrainConfig, make_dataset, mlp, train_data_parallel
from repro.training.data import SyntheticSpec
from tests.kvstore import planned_store


def _dataset():
    spec = SyntheticSpec(n_classes=4, image_size=8, channels=1, noise=1.0)
    return make_dataset(n_train=128, n_val=64, spec=spec, seed=0)


def _net(seed=3):
    return mlp(np.random.default_rng(seed), in_dim=64, hidden=16,
               n_classes=4, batchnorm=False)


def _config():
    return TrainConfig(n_workers=2, epochs=2, batch_size=32, lr=0.05,
                       momentum=0.9, weight_decay=1e-4, seed=7)


def _store(cfg, slice_params=DEFAULT_SLICE_PARAMS, **kw):
    return planned_store(_net().parameters(), cfg.n_workers, 2,
                         slice_params=slice_params, lr=cfg.lr,
                         momentum=cfg.momentum,
                         weight_decay=cfg.weight_decay, seed=1, **kw)


def test_store_training_matches_reference_harness():
    ds, cfg = _dataset(), _config()
    net_ref, net_store = _net(), _net()
    ref = train_data_parallel(net_ref, ds, cfg, method="exact")
    res = train_with_store(net_store, ds, _store(cfg, slice_params=50),
                           cfg)
    np.testing.assert_allclose(net_ref.get_vector(), net_store.get_vector(),
                               rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(ref.val_accuracy, res.val_accuracy)


def test_baseline_and_p3_stores_train_identically():
    """P3 reorders transmissions only: full functional equivalence."""
    ds, cfg = _dataset(), _config()
    net_a, net_b = _net(), _net()
    train_with_store(net_a, ds, _store(cfg, slice_params=None, threshold=100), cfg)
    train_with_store(net_b, ds, _store(cfg, slice_params=37), cfg)
    np.testing.assert_allclose(net_a.get_vector(), net_b.get_vector(),
                               rtol=1e-12, atol=1e-12)


def test_store_training_learns():
    spec = SyntheticSpec(n_classes=4, image_size=8, channels=1, noise=1.0)
    ds = make_dataset(n_train=256, n_val=64, spec=spec, seed=0)
    cfg = TrainConfig(n_workers=2, epochs=5, batch_size=32, lr=0.05,
                      momentum=0.9, weight_decay=1e-4, seed=7)
    net = _net()
    res = train_with_store(net, ds, _store(cfg), cfg)
    assert res.val_accuracy[-1] > 0.6
    assert res.method == "kvstore"


def test_worker_count_mismatch_rejected():
    ds, cfg = _dataset(), _config()
    store = planned_store(_net().parameters(), 4, 2)
    with pytest.raises(ValueError):
        train_with_store(_net(), ds, store, cfg)


def test_lr_schedule_applied_to_shards():
    ds = _dataset()
    cfg = TrainConfig(n_workers=2, epochs=4, batch_size=32, lr=0.1,
                      lr_milestones=(0.5,), lr_gamma=0.1, seed=7)
    store = _store(cfg)
    train_with_store(_net(), ds, store, cfg)
    # after the milestone at epoch 2, shard lr must have decayed
    assert store.shards[0].optimizer.lr == pytest.approx(0.01)
