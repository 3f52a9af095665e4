"""Property suite for the one key planner (repro.placement.keyplan).

One checker, :func:`check_table`, states what a key table must satisfy;
hypothesis runs it over tables planned from both kinds of input the
repo has — :class:`ModelSpec` layer lists (through ``StrategyConfig.plan``
and ``sim.build_plan``) and live parameter dicts (through
``plan_keys`` itself and ``LiveClusterConfig.key_plan``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.calibration import live_model_spec
from repro.core.priority import make_priorities
from repro.live import LiveClusterConfig
from repro.models import vgg19
from repro.models.base import BYTES_PER_PARAM, LayerSpec, ModelSpec
from repro.placement import (KVSTORE_BIG_LAYER_THRESHOLD, PlacedKey,
                             PlacementSpec, plan_keys)
from repro.sim import ClusterConfig, build_plan
from repro.strategies import baseline, p3, p3_with_policy
from tests.kvstore import planned_store

PLACEMENTS = ("round_robin", "balanced", "two_tier")


def spec_for(policy: str) -> PlacementSpec:
    return PlacementSpec(policy=policy, split_factor=1.2, max_splits=3,
                         group_size=2 if policy == "two_tier" else 0)


def check_table(table, sizes, priorities, n_servers, slice_params,
                threshold, repacked):
    keys = list(table)
    assert [pk.key for pk in keys] == list(range(len(keys)))  # dense
    assert all(0 <= pk.server < n_servers for pk in keys)
    for index, size in enumerate(sizes):
        layer = [pk for pk in keys if pk.layer_index == index]
        # spans partition [0, size) exactly, in key order
        assert [pk.offset for pk in layer] == \
            [sum(p.params for p in layer[:i]) for i in range(len(layer))]
        assert sum(pk.params for pk in layer) == size
        assert all(pk.params >= 1 for pk in layer)
        assert all(pk.priority == priorities[index] for pk in layer)
        if repacked:  # parts of different keys may differ by more
            continue
        parts = [pk.params for pk in layer]
        assert max(parts) - min(parts) <= 1
        if slice_params is not None:
            assert max(parts) <= slice_params
            assert (len(parts) - 1) * slice_params < size  # minimal cover
        elif size > threshold and n_servers > 1:
            assert [pk.server for pk in layer] == \
                list(range(min(n_servers, size)))
        else:
            assert len(layer) == 1
    if slice_params is not None and not repacked:
        # the round-robin deal continues across layers
        assert [pk.server for pk in keys] == \
            [i % n_servers for i in range(len(keys))]


rule = st.one_of(st.none(), st.integers(min_value=16, max_value=3_000))
seeds = st.integers(min_value=0, max_value=2 ** 16)
servers = st.integers(min_value=1, max_value=6)


@pytest.mark.parametrize("policy", PLACEMENTS)
@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 6_000), min_size=1, max_size=10),
       n_servers=servers, slice_params=rule,
       threshold=st.integers(0, 6_000), seed=seeds, data=st.data())
def test_planner_invariants(policy, sizes, n_servers, slice_params, threshold,
                            seed, data):
    priorities = data.draw(st.lists(st.integers(0, 50), min_size=len(sizes),
                                    max_size=len(sizes)))

    def plan():
        return plan_keys(sizes, n_servers, slice_params=slice_params,
                         threshold=threshold, priorities=priorities,
                         rng=np.random.default_rng(seed),
                         spec=spec_for(policy), n_workers=4)

    table = plan()
    check_table(table, sizes, priorities, n_servers, slice_params, threshold,
                repacked=policy != "round_robin")
    assert plan() == table  # same seed, same table
    assert (table.placement is None) == (policy == "round_robin")
    assert table.groups == (((0, 1), (2, 3)) if policy == "two_tier" else ())
    assert [list(layer) for layer in table.by_layer] == \
        [[pk for pk in table if pk.layer_index == i]
         for i in range(len(sizes))]
    for s in range(n_servers):
        assert list(table.on_server(s).values()) == \
            [pk for pk in table if pk.server == s]


big_or_small = st.one_of(st.integers(1, 200_000),
                         st.integers(900_000, 3_000_000))


@pytest.mark.parametrize("policy", PLACEMENTS)
@pytest.mark.parametrize("strategy", [
    baseline(), p3(), p3(20_000), p3_with_policy("reverse"),
    p3_with_policy("random")], ids=lambda s: f"{s.name}-{s.slice_params}")
@settings(max_examples=15, deadline=None)
@given(sizes=st.lists(big_or_small, min_size=1, max_size=8),
       n_servers=servers, seed=seeds)
def test_modelspec_layer_lists(strategy, policy, sizes, n_servers, seed):
    model = ModelSpec("m", tuple(LayerSpec(f"l{i}", p, 1.0)
                                 for i, p in enumerate(sizes)), 8, 10.0)
    table = strategy.plan(model, n_servers, np.random.default_rng(seed),
                          spec_for(policy), n_workers=4)
    # the priority policy draws first, from the same stream
    priorities = make_priorities(model, strategy.priority_policy,
                                 np.random.default_rng(seed))
    check_table(table, sizes, priorities, n_servers, strategy.slice_params,
                KVSTORE_BIG_LAYER_THRESHOLD, repacked=policy != "round_robin")
    cfg = ClusterConfig(n_workers=4, n_servers=n_servers,
                        colocate_servers=False, seed=seed, placement=policy,
                        placement_split_factor=1.2, placement_max_splits=3,
                        agg_group_size=2)
    artifacts = build_plan(model, strategy, cfg)
    assert artifacts.placed == table.keys
    assert artifacts.placement_plan == table.placement


@pytest.mark.parametrize("policy", PLACEMENTS)
@pytest.mark.parametrize("sliced", [False, True], ids=["baseline", "p3"])
@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 3_000), min_size=1, max_size=6),
       n_servers=servers, slice_size=st.integers(16, 3_000),
       threshold=st.integers(0, 3_000), seed=seeds)
def test_live_parameter_dicts(sliced, policy, sizes, n_servers, slice_size,
                              threshold, seed):
    slice_params = slice_size if sliced else None
    params = {f"p{i}": np.zeros(size) for i, size in enumerate(sizes)}
    store = planned_store(params, 4, n_servers, slice_params=slice_params,
                          threshold=threshold, seed=seed,
                          placement=spec_for(policy))
    store.init(params)
    check_table(store.table, sizes, range(len(sizes)), n_servers,
                slice_params, threshold, repacked=policy != "round_robin")
    assert store.pull_all().keys() == params.keys()


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("strategy", ["baseline", "p3"])
def test_sim_store_and_live_cluster_share_one_table(placement, strategy):
    """What the conformance suite used to compare across two planners:
    the live nodes' table and the simulator's (for the live workload's
    ModelSpec, under the run's own StrategyConfig and placement spec)
    are one table.  The in-process oracle's store is built over the
    live table, so it is that table by construction."""
    cfg = LiveClusterConfig(
        n_workers=4, n_servers=2, iterations=3, in_size=8, hidden=16, depth=1,
        n_train=32, n_val=16, batch_size=8, slice_params=1_500,
        placement=placement, placement_split_factor=1.2,
        placement_max_splits=3, agg_group_size=2, strategy=strategy)
    table = cfg.key_plan()
    store = cfg.build_store(table)
    assert store.groups == table.groups == cfg.worker_groups()
    sim_cfg = ClusterConfig(
        n_workers=4, n_servers=2, colocate_servers=False,
        seed=cfg.store_seed, placement=placement, placement_split_factor=1.2,
        placement_max_splits=3, agg_group_size=2)
    assert cfg.placement_spec() == sim_cfg.placement_spec()
    assert cfg.strategy_config == (p3(cfg.slice_params) if strategy == "p3"
                                   else baseline())
    sim = build_plan(live_model_spec(cfg), cfg.strategy_config, sim_cfg)
    assert sim.placed == table.keys
    assert sim.placement_plan == table.placement
    assert all(cfg.group_of(w) == g for w, g in sim.group_of.items())
    assert cfg.key_plan() == table  # reproducible


def test_threshold_boundary_and_single_server():
    def plan(sizes, n_servers):
        return plan_keys(sizes, n_servers, slice_params=None,
                         rng=np.random.default_rng(0))

    at, above = KVSTORE_BIG_LAYER_THRESHOLD, KVSTORE_BIG_LAYER_THRESHOLD + 1
    assert [pk.layer_index for pk in plan([at, above], 2)] == [0, 1, 1]
    assert [pk.server for pk in plan([5 * above], 1)] == [0]


def test_vgg19_at_the_papers_slice_size():
    """50k-parameter slices: fc6 alone is >60% of the keys, and the
    round-robin deal still balances the shards' bytes within 10%."""
    model = vgg19()
    table = p3().plan(model, 4, np.random.default_rng(0))
    heavy = len(table.by_layer[model.heaviest_layer])
    assert heavy / len(table) > 0.6
    load = [sum(pk.bytes for pk in table.on_server(s).values())
            for s in range(4)]
    assert sum(load) == model.total_bytes
    assert max(load) / min(load) < 1.1


def test_key_bytes_and_span():
    pk = PlacedKey(key=3, layer_index=1, params=7, priority=1, server=0,
                   offset=5)
    assert pk.bytes == 7 * BYTES_PER_PARAM
    assert pk.span == slice(5, 12)


@pytest.mark.parametrize("kwargs", [
    dict(n_servers=0), dict(slice_params=0), dict(layer_params=[]),
    dict(layer_params=[10, 0]), dict(priorities=[0])])
def test_planner_rejects_bad_input(kwargs):
    args = dict(layer_params=[10, 20], n_servers=2, slice_params=5,
                rng=np.random.default_rng(0))
    args.update(kwargs)
    with pytest.raises(ValueError):
        plan_keys(args.pop("layer_params"), args.pop("n_servers"), **args)
