"""Property-based integration tests: simulator invariants must hold for
*arbitrary* models, strategies, clusters and fault plans, not just the
zoo — this file holds the sim arm of the scenario harness
(``tests/scenarios.py``)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.base import LayerSpec, ModelSpec
from repro.obs import sim_session
from repro.sim import (ClusterConfig, ClusterSim, InvariantMonitor,
                       SimulationError)
from repro.strategies import get_strategy
from tests.scenarios import (FAULT_PLANS, PLACEMENTS, SKEWED_MODEL,
                             TWO_TIER_FAULTS, models, pinned, random_model,
                             run_signature, sim_scenarios, skewed_cluster)

#: P3 on retimed channels (a flapping link, background NOISE): the
#: observed rerun must preempt, and send every slice it enqueues.
PREEMPTING = [
    (random_model(7), "p3", ClusterConfig(n_workers=2, bandwidth_gbps=1.0,
                                          seed=0, **dynamic))
    for dynamic in (dict(fault_plan=FAULT_PLANS["link_flap"]),
                    dict(background_load=0.3))]

#: The sim arm's regression corpus.
SIM_CORPUS = [
    # Every synchronization strategy x fault plan, small random cluster.
    *[(random_model(42), name, ClusterConfig(
        n_workers=2, bandwidth_gbps=1.0, fault_plan=plan, seed=0))
      for name in ("asgd", "baseline", "credit_p3", "p3", "slicing",
                   "tensorflow")
      for plan in FAULT_PLANS.values()],
    # Placement x strategy, with a hot key for `balanced` to split.
    *[(SKEWED_MODEL, name, skewed_cluster(placement))
      for placement in PLACEMENTS for name in ("baseline", "p3")],
    # Credit, deferred pulls and P3 behind aggregators whose machines fault.
    *[(SKEWED_MODEL, name, skewed_cluster("two_tier",
                                          fault_plan=TWO_TIER_FAULTS))
      for name in ("credit_p3", "tensorflow", "p3")],
    *PREEMPTING,
]


@pinned(SIM_CORPUS)
@given(sim_scenarios())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_property_simulation_invariants(scenario):
    """For any drawn scenario: the run terminates, iteration time >=
    compute time, throughput <= the compute bound, every key updates
    once per round, every InvariantMonitor ledger balances (per shard
    and aggregator), the plan's faults fired, and an observed rerun has
    the same signature — same seed, bit-identical; watching (the
    monitor too) changes nothing.  two_tier x ASGD refuses."""
    model, strategy_name, cfg = scenario
    strategy = get_strategy(strategy_name)
    if cfg.two_tier and strategy.async_updates:
        with pytest.raises(SimulationError, match="synchronous"):
            ClusterSim(model, strategy, cfg)
        return
    sim = ClusterSim(model, strategy, cfg, trace_utilization=True)
    monitor = InvariantMonitor(sim)
    iterations = 3
    result = sim.run(iterations=iterations, warmup=1)
    monitor.assert_all_final()
    assert monitor.summary()["contribs_consumed"] > 0
    if cfg.fault_plan:
        assert sim.fault_injector.activations > 0

    assert result.throughput > 0
    compute = model.iteration_compute_time()
    if not model.jitter_sigma:  # bounds on the nominal compute time
        assert result.mean_iteration_time >= compute * 0.999
        bound = cfg.n_workers * model.batch_size / compute
        assert result.throughput <= bound * 1.001

    updates = sum(s.updates_done for s in sim.servers)
    if strategy.async_updates:
        # one update per push: keys x workers x iterations
        assert updates == len(sim.placed) * cfg.n_workers * iterations
    else:
        assert updates == len(sim.placed) * iterations

    sess = sim_session()
    watched = ClusterSim(model, get_strategy(strategy_name), cfg,
                         trace_utilization=True, obs=sess)
    assert run_signature(watched, watched.run(iterations, warmup=1)) \
        == run_signature(sim, result)
    counts = sess.recorder.counts_by_kind()
    assert counts["forward_gate_open"] \
        == cfg.n_workers * len(model.layers) * iterations
    if scenario in PREEMPTING:
        assert counts["slice_preempted"] > 0
        assert counts["slice_enqueued"] == counts["slice_sent"]


@given(model=models,
       n_workers=st.integers(min_value=2, max_value=4),
       seed=st.integers(min_value=0, max_value=3))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_property_p3_not_slower_than_baseline(model, n_workers, seed):
    """P3 may tie but should not lose materially to the baseline on any
    model (allowing 3% slack for tiny-key edge cases).  Derandomized:
    the draws are a fixed sample, so tier-1 cannot trip on a fresh one;
    the case found just past the slack is pinned and explained below."""
    cfg = ClusterConfig(n_workers=n_workers, bandwidth_gbps=0.5, seed=seed)
    base = ClusterSim(model, get_strategy("baseline"), cfg).run(3, warmup=1)
    fast = ClusterSim(model, get_strategy("p3"), cfg).run(3, warmup=1)
    assert fast.throughput >= 0.97 * base.throughput


def test_p3_trails_baseline_when_no_array_fills_a_slice():
    """The property above's recorded counter-example, as a finding
    (EXPERIMENTS.md, "P3 behind the baseline on sub-slice models").

    Every array is smaller than one slice, so slicing is a no-op and
    what is left of P3 is its round-robin deal — which puts layer 0 on
    the shard that also serves the last layer (86 % of the bytes),
    where the seeded random placement of the baseline happens to keep
    them apart.  Layer 0's round, the one the next iteration waits for,
    then shares a NIC with an unsliceable 100 kB message.  P3 ends 3 %
    behind; the *placement* costs that (FIFO on the same deal is
    further behind), the *priorities* win some of it back and, on the
    baseline's own placement, come out ahead."""
    model = ModelSpec(
        name="subslice",
        layers=tuple(LayerSpec(f"l{i}", s, float(s))
                     for i, s in enumerate([3623, 100, 414, 25430])),
        batch_size=1, samples_per_sec=28.0)
    cfg = ClusterConfig(n_workers=3, bandwidth_gbps=0.5, seed=0)
    sims = {name: ClusterSim(model, get_strategy(name), cfg)
            for name in ("baseline", "p3", "slicing", "priority_only")}
    shard_of = {name: {pk.layer_index: pk.server for pk in sim.placed}
                for name, sim in sims.items()}
    assert all(len(sim.placed) == len(model.layers) for sim in sims.values())
    assert shard_of["p3"][0] == shard_of["p3"][3]
    assert shard_of["baseline"][0] != shard_of["baseline"][3]
    speed = {name: sim.run(3, warmup=1).throughput
             for name, sim in sims.items()}
    assert 0.96 * speed["baseline"] < speed["p3"] < 0.975 * speed["baseline"]
    assert speed["slicing"] < speed["p3"]
    assert speed["priority_only"] > speed["baseline"]
