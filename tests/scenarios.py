"""One scenario vocabulary for the bit-identity bar (Section 5.6 of the paper:
P3 reorders transmissions, never values), checked by a sim arm
(``tests/integration/test_random_models.py``: balanced ledgers, and an
observed rerun with the plain run's :func:`run_signature`) and a live
arm (``tests/live/test_aio_cluster.py``: ``run_live_aio`` equals
``run_inprocess``, clean and lossy).  Both are derandomized with a fixed
``max_examples``; their :func:`pinned` ``@example`` rows are the
committed regression corpus, and a failure a draw finds becomes a row.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
from hypothesis import example
from hypothesis import strategies as st

from repro.live import LiveClusterConfig
from repro.models.base import LayerSpec, ModelSpec
from repro.sim import ClusterConfig, ClusterSim
from repro.sim.faults import (ChaosFault, FaultPlan, LinkFault,
                              ServerStallFault, StragglerFault)
from repro.strategies import STRATEGY_FACTORIES

PLACEMENTS = ("round_robin", "balanced", "two_tier")


def pinned(rows):
    """Attach every row as an ``@example`` of the decorated property:
    explicit examples run, in order, before any draw."""
    def attach(test):
        for row in reversed(rows):
            test = example(row)(test)
        return test
    return attach


models = st.builds(
    lambda sizes, batch, sps: ModelSpec(
        name="rand",
        layers=tuple(LayerSpec(f"l{i}", s, float(s))
                     for i, s in enumerate(sizes)),
        batch_size=batch,
        samples_per_sec=float(sps),
    ),
    sizes=st.lists(st.integers(min_value=100, max_value=400_000),
                   min_size=1, max_size=8),
    batch=st.integers(min_value=1, max_value=64),
    sps=st.integers(min_value=10, max_value=2000),
)


def random_model(seed: int) -> ModelSpec:
    """A small random DNN descriptor: 3-6 layers, skewed sizes, 16 ms
    of compute per iteration (what :data:`FAULT_PLANS` are timed for)."""
    rng = np.random.default_rng(seed)
    n_layers = int(rng.integers(3, 7))
    layers = tuple(
        LayerSpec(f"l{i}", int(rng.integers(5_000, 150_000)),
                  float(rng.uniform(0.5, 4.0)))
        for i in range(n_layers)
    )
    return ModelSpec(name=f"rand{seed}", layers=layers, batch_size=8,
                     samples_per_sec=500.0)


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


def skewed_cluster(placement: str, **overrides) -> ClusterConfig:
    """Four workers and shards for :data:`SKEWED_MODEL`, with a split
    factor low enough that ``balanced`` splits its hot key."""
    fields = dict(n_workers=4, n_servers=4, bandwidth_gbps=2.0, seed=0,
                  placement=placement, placement_split_factor=1.5,
                  agg_group_size=2)
    fields.update(overrides)
    return ClusterConfig(**fields)


#: Fault schedules sized for :func:`random_model`'s iterations on two
#: workers; every fault recovers, so runs always drain.
FAULT_PLANS = {
    "none": None,
    "straggler": FaultPlan(
        (StragglerFault(worker=0, factor=2.5, start=0.0, duration=0.01,
                        period=0.03),),
        seed=3),
    "link_flap": FaultPlan(
        (LinkFault(machine=1, rate_factor=0.0, start=0.005, duration=0.004,
                   period=0.02, jitter=0.01),),
        seed=5),
    "server_stall": FaultPlan(
        (ServerStallFault(server=0, start=0.002, duration=0.015,
                          period=0.05),),
        seed=9),
    "combined": FaultPlan(
        (StragglerFault(worker=1, factor=4.0, start=0.0, duration=0.02,
                        period=0.06, jitter=0.01),
         LinkFault(machine=0, rate_factor=0.2, start=0.01, duration=0.01,
                   period=0.04),
         ServerStallFault(server=1, start=0.0, duration=0.01, period=0.05)),
        seed=11),
}

#: Every fault jittered, so two plan seeds give two timelines.
JITTERED_PLAN = FaultPlan(
    faults=(
        StragglerFault(worker=1, factor=3.0, start=0.0, duration=0.01,
                       period=0.04, jitter=0.02),
        LinkFault(machine=0, rate_factor=0.1, start=0.005, duration=0.004,
                  period=0.03, jitter=0.015),
        ServerStallFault(server=0, start=0.002, duration=0.008, period=0.05,
                         jitter=0.01),
    ),
    seed=13,
)

#: For :func:`skewed_cluster` under two-tier (aggregators on machines 0
#: and 2): a slow NIC on one, a link going down outright on the other, a
#: straggling member of the first group and a stalled root shard.
TWO_TIER_FAULTS = FaultPlan((
    StragglerFault(worker=1, factor=2.5, start=0.002, duration=0.01,
                   period=0.04),
    LinkFault(machine=0, rate_factor=0.2, start=0.003, duration=0.01,
              period=0.03),
    LinkFault(machine=2, rate_factor=0.0, start=0.005, duration=0.004,
              period=0.05),
    ServerStallFault(server=1, start=0.004, duration=0.006, period=0.035),
), seed=5)

#: 8% drop + 3% dup + 3% corrupt on every live connection, with the
#: retransmit timer cut from 250 ms to 20 ms (still far above a
#: loopback round trip): a lossy run is mostly spent waiting on it.
LOSSY = FaultPlan((ChaosFault(machine=-1, drop_rate=0.08, dup_rate=0.03,
                              corrupt_rate=0.03),), seed=2)
LOSSY_LINK = dict(fault_plan=LOSSY, rate_bytes_per_s=5_000_000.0,
                  chunk_bytes=4096, ack_timeout_s=0.02)


def fitted(plan, cfg: ClusterConfig, unit: float):
    """``plan`` on ``cfg``: the faults whose target the cluster has,
    retimed from :func:`random_model`'s 16 ms of compute per iteration
    to ``unit`` seconds, so each fires early in a run and recovers."""
    have = dict(worker=cfg.n_workers, server=cfg.servers, machine=(
        cfg.n_workers + (0 if cfg.colocate_servers else cfg.servers)))
    faults = tuple(f for f in (plan.faults if plan else ())
                   if all(getattr(f, k, -1) < n for k, n in have.items()))
    return FaultPlan(faults, plan.seed).scaled(unit / 0.016) \
        if faults else None


@st.composite
def sim_scenarios(draw):
    """``(model, strategy name, ClusterConfig)``: any model (jittered or
    not) and strategy on 1-5 workers, flat, balanced or two-tier (ragged
    and single-member groups included), shards colocated or dedicated,
    with background load and any fault plan here, :func:`fitted`."""
    model = replace(draw(models), jitter_sigma=draw(st.sampled_from(
        [0.0, 0.0, 0.2])))  # compute jitter: each worker's own RNG
    n_workers = draw(st.integers(1, 5))
    colocate = draw(st.booleans())
    cfg = ClusterConfig(
        n_workers=n_workers,
        n_servers=draw(st.integers(1, n_workers if colocate else 3)),
        colocate_servers=colocate,
        bandwidth_gbps=draw(st.sampled_from([0.3, 1.0, 8.0])),
        background_load=draw(st.sampled_from([0.0, 0.0, 0.3])),
        seed=draw(st.integers(0, 3)),
        placement=draw(st.sampled_from(PLACEMENTS)),
        agg_group_size=draw(st.integers(1, 4)))
    plan = draw(st.sampled_from([*FAULT_PLANS.values(), JITTERED_PLAN,
                                 TWO_TIER_FAULTS, LOSSY]))
    cfg = replace(cfg, fault_plan=fitted(
        plan, cfg, model.iteration_compute_time()))
    return model, draw(st.sampled_from(sorted(STRATEGY_FACTORIES))), cfg


#: 3 workers + 2 shards, tiny MLP, no emulated compute: fast enough to
#: run dozens of full live clusters in one test module.
TINY = dict(n_workers=3, n_servers=2, iterations=4, batch_size=6,
            in_size=6, hidden=8, depth=1, n_train=24, n_val=8,
            fwd_layer_s=0.0, bwd_layer_s=0.0, heartbeat_interval_s=0.2)

#: 2 workers, ~7k-param MLP with emulated compute on a 1 MB/s shaped
#: link: small, but timing means something.
SHAPED = dict(n_workers=2, iterations=3, in_size=8, hidden=16, n_train=32,
              n_val=16, batch_size=8, slice_params=1_500,
              rate_bytes_per_s=1_000_000.0, chunk_bytes=4_096,
              fwd_layer_s=0.004, bwd_layer_s=0.008,
              heartbeat_interval_s=0.05)


def live_cfg(*presets: dict, **overrides) -> LiveClusterConfig:
    """The :data:`TINY` live cluster with ``presets`` (:data:`SHAPED`,
    :data:`LOSSY_LINK`), then ``overrides``, laid over it."""
    fields = dict(TINY)
    for layer in (*presets, overrides):
        fields.update(layer)
    return LiveClusterConfig(**fields)


@st.composite
def live_scenarios(draw, link=None):
    """A :func:`live_cfg` with ``link`` laid over it: either strategy,
    every placement (any group size), 1-4 workers on 1-2 shards, two
    slice and chunk sizes and 1-3 rounds."""
    n_workers = draw(st.integers(1, 4))
    return live_cfg(dict(
        strategy=draw(st.sampled_from(["baseline", "p3"])),
        n_workers=n_workers, n_servers=draw(st.integers(1, 2)),
        placement=draw(st.sampled_from(PLACEMENTS)),
        agg_group_size=draw(st.integers(1, n_workers)),
        slice_params=draw(st.sampled_from([500, 5_000])),
        chunk_bytes=draw(st.sampled_from([1_024, 8_192])),
        batch_size=12, warmup=0,
        iterations=draw(st.integers(1, 3))), link or {})


def run_signature(cluster: ClusterSim, result) -> str:
    """sha256 of all a caller can observe of a run traced with
    ``trace_utilization=True``, *in order*: throughput to the last bit,
    the event count, every iteration record, every channel's counters,
    every utilization row, the final clock.  Equal means bit-identical."""
    return hashlib.sha256(repr({
        "throughput": repr(result.throughput),
        "events_processed": result.events_processed,
        "iterations": result.iterations.records,
        "channels": [(ch.machine, ch.direction, ch.bytes_transferred,
                      ch.messages_transferred, repr(ch.busy_time))
                     for ch in cluster.tx_channels + cluster.rx_channels],
        "utilization": result.utilization.records,
        "final_clock": repr(cluster.sim.now),
    }).encode()).hexdigest()
