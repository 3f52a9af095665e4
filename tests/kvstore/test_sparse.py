"""Sparse (DGC-style) pushes through the functional store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kvstore.server import ServerShard
from repro.placement import PlacementSpec
from repro.training.dgc import DGCCompressor, DGCConfig
from repro.training.optim import SGD
from tests.kvstore import planned_store


def test_shard_push_sparse_accumulates():
    shard = ServerShard(0, 2, SGD(lr=1.0, momentum=0.0))
    shard.init_key(0, np.zeros(4))
    shard.push_sparse(0, 0, np.array([1, 3]), np.array([2.0, 4.0]))
    done = shard.push_sparse(1, 0, np.array([1]), np.array([2.0]))
    assert done
    # mean over 2 workers: [0, 2, 0, 2]; lr 1 -> negated
    np.testing.assert_allclose(shard.pull(0), [0.0, -2.0, 0.0, -2.0])


def test_shard_push_sparse_validation():
    shard = ServerShard(0, 1, SGD(lr=1.0))
    shard.init_key(0, np.zeros(3))
    with pytest.raises(IndexError):
        shard.push_sparse(0, 0, np.array([3]), np.array([1.0]))
    with pytest.raises(ValueError):
        shard.push_sparse(0, 0, np.array([0, 1]), np.array([1.0]))
    with pytest.raises(KeyError):
        shard.push_sparse(0, 9, np.array([0]), np.array([1.0]))


def test_shard_sparse_duplicate_worker_rejected():
    shard = ServerShard(0, 2, SGD(lr=1.0))
    shard.init_key(0, np.zeros(2))
    shard.push_sparse(0, 0, np.array([0]), np.array([1.0]))
    with pytest.raises(RuntimeError):
        shard.push_sparse(0, 0, np.array([1]), np.array([1.0]))


def _full_density_sparse(grads):
    return {name: (np.arange(g.size), g.ravel().copy())
            for name, g in grads.items()}


@pytest.mark.parametrize("kw", [{"slice_params": 37}, {"threshold": 100}],
                         ids=["p3", "baseline"])
def test_sparse_round_full_density_matches_dense(kw):
    """density=1 sparse pushes must equal dense pushes exactly, across
    both placements — compression composes with slicing/sharding."""
    rng = np.random.default_rng(0)
    params = {"a": rng.normal(size=300), "b": rng.normal(size=(5, 9))}
    grads = [{k: rng.normal(size=v.shape) for k, v in params.items()}
             for _ in range(2)]
    dense_store = planned_store(params, 2, 2, lr=0.1, momentum=0.9,
                                seed=3, **kw)
    sparse_store = planned_store(params, 2, 2, lr=0.1, momentum=0.9,
                                 seed=3, **kw)
    dense_store.init(params)
    sparse_store.init(params)
    out_d = dense_store.round(grads)
    out_s = sparse_store.round_sparse([_full_density_sparse(g) for g in grads])
    for name in params:
        np.testing.assert_allclose(out_s[name], out_d[name], atol=1e-12)


def test_sparse_round_with_real_dgc_compressor():
    """End-to-end: DGCCompressor output flows through the sliced store."""
    rng = np.random.default_rng(1)
    params = {"w": rng.normal(size=500)}
    store = planned_store(params, 2, 2, lr=0.1, momentum=0.0,
                          slice_params=100)
    store.init(params)
    comps = [DGCCompressor(DGCConfig(density=0.1, momentum=0.0, clip_norm=0.0,
                                     warmup_epochs=0, warmup_densities=()))
             for _ in range(2)]
    sparse = []
    for comp in comps:
        grads = {"w": rng.normal(size=500)}
        sparse.append(comp.compress(grads, density=0.1))
    new = store.round_sparse(sparse)
    # Only ~10% of coordinates moved; most must be untouched this round.
    moved = np.sum(~np.isclose(new["w"], params["w"]))
    assert 0 < moved <= 2 * 50 + 5


def test_grouped_sparse_round_is_the_grouped_dense_round_bit_for_bit():
    """sparse x two_tier used to raise.  A group's aggregator densifies
    its members' contributions and sums them in member-id order, so the
    round must equal the grouped dense round over the densified
    gradients exactly — ragged last group and repeated indices
    included."""
    rng = np.random.default_rng(4)
    params = {"a": rng.normal(size=300), "b": rng.normal(size=(5, 9))}
    spec = PlacementSpec(policy="two_tier", group_size=2)
    stores = [planned_store(params, 5, 2, lr=0.1, momentum=0.9, seed=3,
                            slice_params=37, placement=spec)
              for _ in range(2)]
    for store in stores:
        store.init(params)
    assert stores[0].groups == ((0, 1), (2, 3), (4,))
    for _ in range(3):
        sparse, dense = [], []
        for _w in range(5):
            sparse.append({})
            dense.append({})
            for name, value in params.items():
                idx = rng.integers(0, value.size, size=value.size // 4)
                vals = rng.normal(size=idx.size)
                sparse[-1][name] = (idx, vals)
                dense[-1][name] = np.zeros(value.size)
                np.add.at(dense[-1][name], idx, vals)
        out_s = stores[0].round_sparse(sparse)
        out_d = stores[1].round(dense)
        for name in params:
            np.testing.assert_array_equal(out_s[name], out_d[name])


def test_sparse_round_validates_inputs():
    params = {"w": np.zeros(10)}
    store = planned_store(params, 2, 1)
    store.init(params)
    with pytest.raises(ValueError):
        store.round_sparse([{"w": (np.array([0]), np.array([1.0]))}])
    with pytest.raises(KeyError):
        store.round_sparse([{"x": (np.array([0]), np.array([1.0]))},
                            {"x": (np.array([0]), np.array([1.0]))}])
