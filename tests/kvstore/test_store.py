"""Unit and property tests for the functional stores."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import BaselineKVStore, P3Store


def _params(rng=None, sizes=((3, 4), (130,), (7,))):
    rng = rng or np.random.default_rng(0)
    return {f"p{i}": rng.normal(size=s) for i, s in enumerate(sizes)}


def _grads_like(params, rng):
    return {k: rng.normal(size=v.shape) for k, v in params.items()}


@pytest.mark.parametrize("store_cls", [BaselineKVStore, P3Store])
def test_init_and_pull_round_trip(store_cls):
    params = _params()
    store = store_cls(n_workers=2, n_servers=3, seed=1)
    store.init(params)
    pulled = store.pull_all()
    for name in params:
        np.testing.assert_allclose(pulled[name], params[name])
        assert pulled[name].shape == params[name].shape


def test_requires_init_first():
    store = P3Store(n_workers=1, n_servers=1)
    with pytest.raises(RuntimeError):
        store.pull_all()
    with pytest.raises(RuntimeError):
        store.round([{}])


def test_double_init_rejected():
    store = P3Store(n_workers=1, n_servers=1)
    store.init(_params())
    with pytest.raises(RuntimeError):
        store.init(_params())


def test_round_validates_inputs():
    store = P3Store(n_workers=2, n_servers=1)
    params = _params()
    store.init(params)
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        store.round([_grads_like(params, rng)])  # wrong worker count
    bad = [_grads_like(params, rng), {"nope": np.zeros(3)}]
    with pytest.raises(KeyError):
        store.round(bad)


def test_p3_slices_respect_size():
    store = P3Store(n_workers=1, n_servers=2, slice_params=50)
    store.init(_params(sizes=((130,), (49,))))
    for pk in store.keys:
        assert pk.params <= 50
    assert store.n_keys == 4  # 130 -> 3 slices, 49 -> 1


def test_p3_round_robin_placement():
    store = P3Store(n_workers=1, n_servers=2, slice_params=10)
    store.init({"a": np.zeros(40)})
    assert [pk.server for pk in store.keys] == [0, 1, 0, 1]


def test_p3_transmission_order_is_priority_order():
    store = P3Store(n_workers=1, n_servers=2, slice_params=10)
    store.init({"a": np.zeros(25), "b": np.zeros(25)})
    order = store.transmission_order()
    priorities = [m.priority for m in order]
    assert priorities == sorted(priorities)
    assert order[0].layer_index == 0


def test_baseline_splits_big_arrays():
    store = BaselineKVStore(n_workers=1, n_servers=4, threshold=100)
    store.init({"big": np.zeros(401), "small": np.zeros(50)})
    big = [pk for pk in store.keys if pk.layer_index == 0]
    assert [pk.server for pk in big] == [0, 1, 2, 3]
    assert sum(pk.params for pk in big) == 401
    assert len(store.keys) == 5


def test_server_load_balanced_for_p3():
    store = P3Store(n_workers=1, n_servers=4, slice_params=10)
    store.init({"a": np.zeros(1000)})
    load = store.server_load()
    assert load.sum() == 1000
    assert load.max() - load.min() <= 10


def test_single_round_matches_manual_sgd():
    rng = np.random.default_rng(3)
    params = _params(rng)
    grads = [_grads_like(params, rng) for _ in range(2)]
    store = P3Store(n_workers=2, n_servers=3, lr=0.1, momentum=0.0,
                    slice_params=7, seed=5)
    store.init(params)
    new = store.round(grads)
    for name in params:
        mean = (grads[0][name] + grads[1][name]) / 2
        np.testing.assert_allclose(new[name], params[name] - 0.1 * mean,
                                   atol=1e-12)


def test_baseline_and_p3_produce_identical_values():
    """The functional core of Section 5.6: transmission scheduling must
    not change the math."""
    rng = np.random.default_rng(7)
    params = _params(rng, sizes=((64,), (1500,), (9, 9)))
    grad_rounds = [
        [_grads_like(params, rng) for _ in range(3)] for _ in range(4)
    ]
    base = BaselineKVStore(n_workers=3, n_servers=2, lr=0.05, momentum=0.9,
                           threshold=1000, seed=11)
    fast = P3Store(n_workers=3, n_servers=2, lr=0.05, momentum=0.9,
                   slice_params=100, seed=11)
    base.init(params)
    fast.init(params)
    for grads in grad_rounds:
        out_a = base.round(grads)
        out_b = fast.round(grads)
    for name in params:
        np.testing.assert_allclose(out_a[name], out_b[name],
                                   rtol=1e-12, atol=1e-12)


def test_set_lr_propagates():
    store = P3Store(n_workers=1, n_servers=2, lr=0.1)
    store.init(_params())
    store.set_lr(0.01)
    for shard in store.shards:
        assert shard.optimizer.lr == 0.01


@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=40),
       st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_property_plan_covers_every_element(n_workers, n_servers,
                                            slice_params, sizes):
    store = P3Store(n_workers=n_workers, n_servers=n_servers,
                    slice_params=slice_params)
    params = {f"p{i}": np.arange(float(s)) for i, s in enumerate(sizes)}
    store.init(params)
    pulled = store.pull_all()
    for name, value in params.items():
        np.testing.assert_array_equal(pulled[name], value)
