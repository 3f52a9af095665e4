"""Conservation and exactly-once invariants under placement policies.

Key splitting and two-tier partial aggregation reshape *where* bytes
flow, never *whether* they arrive: the simulator's full invariant
monitor (byte conservation per flow, monotonic clock, every slice
applied exactly once, no stale parameter reads, and — under two-tier —
every aggregator combining exactly ``group_size`` contributions per
combined push) must hold for every placement policy.  The kvstore half
pins the numerical side: a split key's partial updates merge to the
same values as the unsplit key, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kvstore import P3Store
from repro.models import get_model, toy_model
from repro.models.base import LayerSpec, ModelSpec
from repro.placement import PlacementSpec
from repro.sim import (ClusterConfig, ClusterSim, FaultPlan, LinkFault,
                       ServerStallFault, SimulationError, StragglerFault,
                       simulate, simulate_checked)
from repro.strategies import baseline, credit_p3, p3, tensorflow_style

#: One hot layer behind small ones.  Kept *below* the baseline plan's
#: big-layer threshold (10^6 params) so the strategy's own plan leaves
#: it whole and the split decision belongs to repro.placement alone.
SKEWED_MODEL = ModelSpec(
    name="skewtoy",
    layers=(
        LayerSpec("fc", 900_000, flops=2e9),
        LayerSpec("conv1", 40_000, flops=2e9),
        LayerSpec("conv2", 30_000, flops=2e9),
        LayerSpec("conv3", 20_000, flops=2e9),
    ),
    batch_size=32,
    samples_per_sec=500.0,
)


def _cfg(placement, **kw):
    base = dict(n_workers=4, n_servers=4, bandwidth_gbps=2.0, seed=0,
                placement=placement, placement_split_factor=1.5,
                agg_group_size=2)
    base.update(kw)
    return ClusterConfig(**base)


@pytest.mark.parametrize("placement", ["round_robin", "balanced", "two_tier"])
@pytest.mark.parametrize("strategy", [baseline, p3])
def test_invariants_hold_under_placement(placement, strategy):
    result = simulate_checked(SKEWED_MODEL, strategy(), _cfg(placement),
                              iterations=3, warmup=1)
    assert result.throughput > 0


def test_balanced_actually_split_a_key():
    """Guard the guard: the skewed model must force a split, otherwise
    the invariant runs above exercise nothing new."""
    sim = ClusterSim(SKEWED_MODEL, baseline(), _cfg("balanced"))
    assert any(p.is_split for p in sim.placement_plan.placements)


def test_two_tier_groups_cover_workers():
    sim = ClusterSim(SKEWED_MODEL, p3(), _cfg("two_tier"))
    flat = [w for g in sim.groups for w in g]
    assert sorted(flat) == list(range(sim.n_workers))
    assert len(sim.aggregators) == sim.n_groups > 1


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


#: Aggregators sit on machines 0 and 2 (groups of 2 over 4 workers):
#: one gets a slow NIC, the other a link that goes down outright, a
#: member of the first group straggles and a root shard stalls.
TWO_TIER_FAULTS = FaultPlan((
    StragglerFault(worker=1, factor=2.5, start=0.002, duration=0.01,
                   period=0.04),
    LinkFault(machine=0, rate_factor=0.2, start=0.003, duration=0.01,
              period=0.03),
    LinkFault(machine=2, rate_factor=0.0, start=0.005, duration=0.004,
              period=0.05),
    ServerStallFault(server=1, start=0.004, duration=0.006, period=0.035),
), seed=5)


@pytest.mark.parametrize("strategy", [credit_p3, tensorflow_style, p3])
def test_two_tier_keeps_every_invariant_under_faults(strategy):
    """Credit flow control, deferred pulls and a fault plan each used to
    be refused under two-tier; the aggregator now has them from the
    shard it is built from, and every ledger still balances — on the
    roots and, per group, on the aggregators."""
    cfg = _cfg("two_tier", fault_plan=TWO_TIER_FAULTS)
    cluster = ClusterSim(SKEWED_MODEL, strategy(), cfg)
    assert {a.machine for a in cluster.aggregators} == {0, 2}
    faulted = simulate_checked(SKEWED_MODEL, strategy(), cfg,
                               iterations=4, warmup=1)
    clean = simulate_checked(SKEWED_MODEL, strategy(), _cfg("two_tier"),
                             iterations=4, warmup=1)
    assert 0 < faulted.throughput < clean.throughput


def test_placement_throughput_is_deterministic():
    a = simulate(SKEWED_MODEL, p3(), _cfg("two_tier"), iterations=3, warmup=1)
    b = simulate(SKEWED_MODEL, p3(), _cfg("two_tier"), iterations=3, warmup=1)
    assert a.mean_iteration_time == b.mean_iteration_time


# ----------------------------------------------------------------------
# kvstore: split-merge numerics
# ----------------------------------------------------------------------
def _run_store(**kw):
    store = P3Store(n_servers=kw.pop("n_servers", 2),
                    n_workers=kw.pop("n_workers", 4),
                    lr=0.1, seed=7, slice_params=500, **kw)
    rng = np.random.default_rng(3)
    shapes = {"fc": (300, 10), "bias": (17,)}
    store.init({name: rng.standard_normal(shape)
                for name, shape in shapes.items()})
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
