"""Placement policies reshape *where* bytes flow, never *whether* they
arrive (every invariant, every policy, with and without faults: the sim
arm, ``tests/integration/test_random_models.py``).  Here: the topology
they build, the one refusal, and the kvstore half — a split key's
partial updates merge to the unsplit values, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import toy_model
from repro.placement import PlacementSpec
from repro.sim import ClusterSim, SimulationError, simulate
from repro.strategies import baseline, p3
from tests.kvstore import planned_store
from tests.scenarios import SKEWED_MODEL, skewed_cluster as _cfg


def test_balanced_actually_split_a_key():
    """Guard the guard: the skewed model must force a split, otherwise
    the sim arm's placement rows exercise nothing new."""
    sim = ClusterSim(SKEWED_MODEL, baseline(), _cfg("balanced"))
    assert any(p.is_split for p in sim.placement_plan.placements)


def test_two_tier_groups_cover_workers():
    sim = ClusterSim(SKEWED_MODEL, p3(), _cfg("two_tier"))
    flat = [w for g in sim.groups for w in g]
    assert sorted(flat) == list(range(sim.n_workers))
    assert len(sim.aggregators) == sim.n_groups > 1
    # On the group leads, where TWO_TIER_FAULTS aims its link faults.
    assert {a.machine for a in sim.aggregators} == {0, 2}


def test_two_tier_refuses_async_before_building_anything(monkeypatch):
    """ASGD has no group round for an aggregator to combine — the one
    two-tier refusal, made with its reason before a plan or a node
    exists (not from the middle of a half-wired cluster)."""
    from repro.sim import cluster
    from repro.strategies import asgd

    def built(*_args, **_kwargs):
        raise AssertionError("built something before refusing")

    for name in ("build_plan", "SimWorker", "SimServerShard", "SimAggregator"):
        monkeypatch.setattr(cluster, name, built)
    with pytest.raises(SimulationError, match="no group round"):
        cluster.ClusterSim(toy_model(), asgd(), _cfg("two_tier"))


def test_placement_throughput_is_deterministic():
    a = simulate(SKEWED_MODEL, p3(), _cfg("two_tier"), iterations=3, warmup=1)
    b = simulate(SKEWED_MODEL, p3(), _cfg("two_tier"), iterations=3, warmup=1)
    assert a.mean_iteration_time == b.mean_iteration_time


# ----------------------------------------------------------------------
# kvstore: split-merge numerics
# ----------------------------------------------------------------------
def _run_store(**kw):
    rng = np.random.default_rng(3)
    shapes = {"fc": (300, 10), "bias": (17,)}
    params = {name: rng.standard_normal(shape)
              for name, shape in shapes.items()}
    store = planned_store(params, 4, 2, lr=0.1, seed=7, slice_params=500,
                          **kw)
    store.init(params)
    params = None
    for _ in range(3):
        grads = [{name: rng.standard_normal(shape)
                  for name, shape in shapes.items()}
                 for _ in range(store.n_workers)]
        params = store.round(grads)
    return params


def test_split_key_merges_to_unsplit_values():
    """Partial aggregation over disjoint spans is elementwise: a key
    split across shards must update to exactly the unsplit values."""
    unsplit = _run_store()
    split = _run_store(placement=PlacementSpec(
        policy="balanced", split_factor=1.01, max_splits=4))
    for name in unsplit:
        np.testing.assert_array_equal(unsplit[name], split[name])


def test_two_tier_grouped_rounds_match_flat():
    """Grouped (two-tier) aggregation sums the same numbers in a fixed
    tree order; values match the flat store to fp round-off."""
    flat = _run_store()
    grouped = _run_store(placement=PlacementSpec(policy="two_tier",
                                                 group_size=2))
    for name in flat:
        np.testing.assert_allclose(flat[name], grouped[name],
                                   rtol=1e-12, atol=1e-12)
