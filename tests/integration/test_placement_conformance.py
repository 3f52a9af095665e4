"""Cross-substrate placement conformance: one plan, two executors.

The placement subsystem plans in abstract demand units precisely so the
simulator and the live cluster can execute the *same* decision.  These
tests pin that promise at two levels:

* **plan identity** — for the same workload, the sim's rewritten key
  table and the live store's rewritten key plan are identical: same
  keys, same sizes, same shard assignment, same split structure;
* **round identity** — a live run under each placement policy produces
  final parameters bit-identical to the in-process store fed the same
  seeded plan (the live tests run real sockets and are ``slow``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.calibration import live_model_spec, run_inprocess
from repro.live import LiveClusterConfig, make_plan
from repro.live.aio import run_live_aio
from repro.sim import ClusterConfig, ClusterSim
from repro.strategies import baseline, p3

PLACEMENTS = ("round_robin", "balanced", "two_tier")


def live_cfg(placement: str, **overrides) -> LiveClusterConfig:
    defaults = dict(
        n_workers=4, n_servers=2, iterations=3, warmup=1,
        in_size=8, hidden=16, depth=1, n_train=32, n_val=16, batch_size=8,
        slice_params=1_500, rate_bytes_per_s=None, chunk_bytes=4_096,
        fwd_layer_s=0.002, bwd_layer_s=0.004, heartbeat_interval_s=0.05,
        placement=placement, split_factor=1.2, max_splits=3,
        agg_group_size=2,
    )
    defaults.update(overrides)
    return LiveClusterConfig(**defaults)


def sim_for(cfg: LiveClusterConfig, strategy: str) -> ClusterSim:
    """The live workload re-expressed on the simulator substrate."""
    strat = p3(cfg.slice_params) if strategy == "p3" else baseline()
    sim_cfg = ClusterConfig(
        n_workers=cfg.n_workers, n_servers=cfg.n_servers,
        bandwidth_gbps=1.0, colocate_servers=False, seed=cfg.store_seed,
        placement=cfg.placement, placement_split_factor=cfg.split_factor,
        placement_max_splits=cfg.max_splits,
        agg_group_size=cfg.agg_group_size)
    return ClusterSim(live_model_spec(cfg), strat, sim_cfg)


# ----------------------------------------------------------------------
# Plan identity (pure, fast)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("strategy", ["baseline", "p3"])
def test_sim_and_live_agree_on_every_shard_assignment(placement, strategy):
    cfg = live_cfg(placement)
    live_plan = make_plan(cfg, strategy)
    sim = sim_for(cfg, strategy)

    live_table = [(m.key, m.size, m.server, m.priority)
                  for m in live_plan.metas]
    sim_table = [(pk.key, pk.params, pk.server, pk.priority)
                 for pk in sim.placed]
    assert live_table == sim_table
    # per-shard key sets line up exactly
    for s in range(cfg.n_servers):
        live_keys = sorted(live_plan.server_keys(s))
        sim_keys = sorted(pk.key for pk in sim.placed if pk.server == s)
        assert live_keys == sim_keys, f"shard {s} disagrees"


@pytest.mark.parametrize("placement", ["balanced", "two_tier"])
def test_sim_and_live_compute_the_same_placement_plan(placement):
    """Deeper than table equality: the PlacementPlan object itself —
    spec, splits, groups — is equal across substrates."""
    cfg = live_cfg(placement)
    store = cfg.build_initialized_store("p3")
    sim = sim_for(cfg, "p3")
    assert store.placement_plan is not None
    assert sim.placement_plan is not None
    assert store.placement_plan == sim.placement_plan


def test_two_tier_groups_agree_across_substrates():
    cfg = live_cfg("two_tier")
    store = cfg.build_initialized_store("p3")
    sim = sim_for(cfg, "p3")
    assert store.groups == sim.groups == cfg.worker_groups()
    for w in range(cfg.n_workers):
        assert cfg.group_of(w) == sim.group_of[w]


def test_seeded_plans_are_reproducible():
    """Same config, built twice: byte-for-byte the same plan (the
    property every live node relies on)."""
    cfg_a = live_cfg("balanced")
    cfg_b = live_cfg("balanced")
    metas_a = [(m.key, m.name, m.start, m.stop, m.server)
               for m in make_plan(cfg_a, "p3").metas]
    metas_b = [(m.key, m.name, m.start, m.stop, m.server)
               for m in make_plan(cfg_b, "p3").metas]
    assert metas_a == metas_b


# ----------------------------------------------------------------------
# Round identity (real sockets)
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_live_round_results_bit_identical_per_placement(placement):
    """Same seeded plan, real sockets vs in-process store: the final
    parameters must agree bit for bit under every placement policy —
    including split keys (balanced) and partial aggregation through a
    real aggregator node (two_tier)."""
    cfg = live_cfg(placement, rate_bytes_per_s=2_000_000.0)
    live = run_live_aio(cfg, strategy="p3")
    ref = run_inprocess(cfg, strategy="p3")
    assert set(live.final_params) == set(ref)
    for name in ref:
        np.testing.assert_array_equal(
            live.final_params[name], ref[name],
            err_msg=f"{placement}: {name} diverged from in-process store")
