"""Unit and property tests for the functional store."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import DEFAULT_SLICE_PARAMS
from tests.kvstore import planned_store


def _params(rng=None, sizes=((3, 4), (130,), (7,))):
    rng = rng or np.random.default_rng(0)
    return {f"p{i}": rng.normal(size=s) for i, s in enumerate(sizes)}


def _grads_like(params, rng):
    return {k: rng.normal(size=v.shape) for k, v in params.items()}


@pytest.mark.parametrize("slice_params", [None, DEFAULT_SLICE_PARAMS],
                         ids=["baseline", "p3"])
def test_init_and_pull_round_trip(slice_params):
    params = _params()
    store = planned_store(params, 2, 3, slice_params=slice_params, seed=1)
    store.init(params)
    pulled = store.pull_all()
    for name in params:
        np.testing.assert_allclose(pulled[name], params[name])
        assert pulled[name].shape == params[name].shape


def test_requires_init_first():
    store = planned_store(_params(), 1, 1)
    with pytest.raises(RuntimeError):
        store.pull_all()
    with pytest.raises(RuntimeError):
        store.round([{}])


def test_double_init_rejected():
    store = planned_store(_params(), 1, 1)
    store.init(_params())
    with pytest.raises(RuntimeError):
        store.init(_params())


def test_round_validates_inputs():
    params = _params()
    store = planned_store(params, 2, 1)
    store.init(params)
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        store.round([_grads_like(params, rng)])  # wrong worker count
    bad = [_grads_like(params, rng), {"nope": np.zeros(3)}]
    with pytest.raises(KeyError):
        store.round(bad)


def test_init_refuses_params_the_table_was_not_planned_for():
    """The table comes from outside the store, so init checks it covers
    exactly the arrays it is handed: their count and their sizes."""
    params = _params()
    for wrong in ({"p0": params["p0"], "p1": params["p1"]},
                  {**params, "p2": np.zeros(8)}):
        with pytest.raises(ValueError, match="planned for"):
            planned_store(params, 1, 2).init(wrong)


def test_p3_slices_respect_size():
    params = _params(sizes=((130,), (49,)))
    store = planned_store(params, 1, 2, slice_params=50)
    store.init(params)
    for pk in store.table:
        assert pk.params <= 50
    assert len(store.table) == 4  # 130 -> 3 slices, 49 -> 1


def test_p3_round_robin_placement():
    store = planned_store({"a": np.zeros(40)}, 1, 2, slice_params=10)
    assert [pk.server for pk in store.table] == [0, 1, 0, 1]


def test_baseline_splits_big_arrays():
    params = {"big": np.zeros(401), "small": np.zeros(50)}
    store = planned_store(params, 1, 4, threshold=100)
    store.init(params)
    big = [pk for pk in store.table if pk.layer_index == 0]
    assert [pk.server for pk in big] == [0, 1, 2, 3]
    assert sum(pk.params for pk in big) == 401
    assert len(store.table) == 5


def test_server_load_balanced_for_p3():
    store = planned_store({"a": np.zeros(1000)}, 1, 4, slice_params=10)
    load = np.bincount([pk.server for pk in store.table],
                       [pk.params for pk in store.table])
    assert load.sum() == 1000
    assert load.max() - load.min() <= 10


def test_single_round_matches_manual_sgd():
    rng = np.random.default_rng(3)
    params = _params(rng)
    grads = [_grads_like(params, rng) for _ in range(2)]
    store = planned_store(params, 2, 3, lr=0.1, momentum=0.0,
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
    base = planned_store(params, 3, 2, lr=0.05, momentum=0.9,
                         threshold=1000, seed=11)
    fast = planned_store(params, 3, 2, lr=0.05, momentum=0.9,
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
    params = _params()
    store = planned_store(params, 1, 2, lr=0.1)
    store.init(params)
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
    params = {f"p{i}": np.arange(float(s)) for i, s in enumerate(sizes)}
    store = planned_store(params, n_workers, n_servers,
                          slice_params=slice_params)
    store.init(params)
    pulled = store.pull_all()
    for name, value in params.items():
        np.testing.assert_array_equal(pulled[name], value)
