"""Unit tests for strategy configurations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.placement import PlacedKey
from repro.models import toy_model, vgg19
from repro.strategies import (
    STRATEGY_FACTORIES,
    PullPolicy,
    StrategyConfig,
    asgd,
    baseline,
    dgc_timing,
    get_strategy,
    p3,
    p3_with_policy,
    poseidon_wfbp,
    priority_only,
    slicing_only,
    tensorflow_style,
)


def test_baseline_characteristics():
    s = baseline()
    assert s.slice_params is None
    assert not s.prioritized
    assert s.pull_policy is PullPolicy.NOTIFY_PULL
    assert s.queue_discipline == "fifo"
    assert not s.async_updates


def test_p3_characteristics():
    s = p3()
    assert s.slice_params == 50_000
    assert s.prioritized
    assert s.pull_policy is PullPolicy.BROADCAST
    assert s.queue_discipline == "priority"


def test_slicing_only_characteristics():
    s = slicing_only(slice_params=10_000)
    assert s.slice_params == 10_000
    assert not s.prioritized
    assert s.pull_policy is PullPolicy.BROADCAST


def test_tensorflow_defers_pull():
    assert tensorflow_style().pull_policy is PullPolicy.DEFERRED_PULL


def test_asgd_is_async():
    assert asgd().async_updates


def test_poseidon_is_layerwise_fifo():
    s = poseidon_wfbp()
    assert s.slice_params is None and not s.prioritized


def test_dgc_timing_scales_payloads():
    s = dgc_timing(density=0.001)
    assert s.gradient_scale == pytest.approx(0.002)
    assert s.param_scale == pytest.approx(0.002)
    with pytest.raises(ValueError):
        dgc_timing(density=0.9)


def test_priority_only_keeps_layer_granularity():
    s = priority_only()
    assert s.slice_params is None and s.prioritized


def test_p3_with_policy():
    s = p3_with_policy("reverse")
    assert s.priority_policy == "reverse"
    assert s.name == "p3_reverse"


def test_with_slice_copies():
    s = p3().with_slice(1_000)
    assert s.slice_params == 1_000
    assert p3().slice_params == 50_000  # original untouched


def test_validation():
    with pytest.raises(ValueError):
        StrategyConfig("bad", 0, False, PullPolicy.BROADCAST)
    with pytest.raises(ValueError):
        StrategyConfig("bad", None, False, PullPolicy.BROADCAST, gradient_scale=0.0)
    with pytest.raises(ValueError):
        StrategyConfig("bad", None, False, PullPolicy.BROADCAST, param_scale=2.0)


def test_get_strategy_factory():
    for name in STRATEGY_FACTORIES:
        assert get_strategy(name).name in (name, STRATEGY_FACTORIES[name]().name)
    with pytest.raises(KeyError):
        get_strategy("allreduce")


def test_plan_sliced_round_robin():
    rng = np.random.default_rng(0)
    placed = p3(slice_params=10_000).plan(toy_model(), 3, rng)
    assert all(isinstance(pk, PlacedKey) for pk in placed)
    assert [pk.server for pk in placed[:3]] == [0, 1, 2]
    assert sum(pk.params for pk in placed) == toy_model().total_params


def test_plan_layer_granularity_uses_kvstore():
    rng = np.random.default_rng(0)
    model = vgg19()
    placed = baseline().plan(model, 4, rng)
    # the fc6 weight (>1M params) must be split across all 4 servers
    heavy = model.heaviest_layer
    heavy_keys = [pk for pk in placed if pk.layer_index == heavy]
    assert len(heavy_keys) == 4


def test_plan_respects_priority_policy():
    rng = np.random.default_rng(0)
    placed = p3_with_policy("reverse", slice_params=10_000).plan(toy_model(), 2, rng)
    n = toy_model().n_layers
    for pk in placed:
        assert pk.priority == n - 1 - pk.layer_index
