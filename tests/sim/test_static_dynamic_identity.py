"""The static channel paths are the dynamic path, minus allocations.

``ClusterSim(cfg)`` wires static channels — handle-free TX completions
and, where the transport is an RX's only producer, no link-latency
event towards an RX that is busy anyway (``Channel.fuse_hop``).
``ClusterSim(cfg, link_cancellable=True)`` wires the generic
``set_rate``-capable path with one event per hop.  Everything a caller
can observe must be identical, *in the same order* (simultaneous events
included): throughput to the last bit, the logical event count, every
iteration record, every channel's counters and every utilization row —
including the configurations where fusion switches itself off, and a
run driven in ``until=`` / ``max_events=`` pieces.
"""

from __future__ import annotations

import pytest

from repro.models import toy_model
from repro.sim import ClusterConfig, ClusterSim, SimulationError
from repro.sim.network import Message, MsgKind, Role
from repro.strategies import STRATEGY_FACTORIES

ITERATIONS, WARMUP = 4, 1

# Uneven layers of several 50k-parameter slices each, so NIC queues
# back up and RX channels see both idle gaps and incast.
MODEL = toy_model(layer_params=(120_000, 60_000, 260_000), name="toy-uneven")

CONFIGS = {
    "plain": dict(n_workers=4),
    "dedicated_servers": dict(n_workers=3, n_servers=2,
                              colocate_servers=False),
    "background": dict(n_workers=3, background_load=0.3,
                       background_burst_bytes=40_000),
    "oversubscribed": dict(n_workers=4, oversubscription=2.0),
    "two_tier": dict(n_workers=4, placement="two_tier", agg_group_size=2),
}


def _two_tier_capable(strategy) -> bool:
    return not strategy.async_updates


def _cases():
    for config_name, overrides in CONFIGS.items():
        for strategy_name, factory in STRATEGY_FACTORIES.items():
            if config_name == "two_tier" and not _two_tier_capable(factory()):
                continue
            yield pytest.param(strategy_name, overrides,
                               id=f"{config_name}-{strategy_name}")


def _cluster(strategy_name: str, overrides: dict, **kwargs) -> ClusterSim:
    config = ClusterConfig(bandwidth_gbps=1.0, seed=3, **overrides)
    return ClusterSim(MODEL, STRATEGY_FACTORIES[strategy_name](), config,
                      trace_utilization=True, **kwargs)


def _observable(cluster: ClusterSim, result) -> dict:
    return {
        "throughput": repr(result.throughput),
        "events_processed": result.events_processed,
        "iterations": result.iterations.records,
        "channels": [(ch.machine, ch.direction, ch.bytes_transferred,
                      ch.messages_transferred, repr(ch.busy_time))
                     for ch in cluster.tx_channels + cluster.rx_channels],
        "utilization": result.utilization.records,
        "final_clock": repr(cluster.sim.now),
    }


@pytest.mark.parametrize("strategy_name,overrides", _cases())
def test_static_run_equals_dynamic_run(strategy_name, overrides):
    static = _cluster(strategy_name, overrides)
    dynamic = _cluster(strategy_name, overrides, link_cancellable=True)
    got = _observable(static, static.run(ITERATIONS, WARMUP))
    want = _observable(dynamic, dynamic.run(ITERATIONS, WARMUP))
    for name in want:
        assert got[name] == want[name], name
    assert static.sim.pending == dynamic.sim.pending == 0


@pytest.mark.parametrize("strategy_name", ["baseline", "p3", "credit_p3"])
def test_split_run_equals_single_run(strategy_name):
    """``until=`` and ``max_events=`` stop between events; resuming must
    not lose a delivery waiting behind a fused RX's head of line."""
    whole = _cluster(strategy_name, CONFIGS["plain"], link_cancellable=True)
    want = _observable(whole, whole.run(ITERATIONS, WARMUP))

    split = _cluster(strategy_name, CONFIGS["plain"])
    split.start_run(ITERATIONS, WARMUP)
    end = whole.sim.now
    split.sim.run(until=0.3 * end)
    assert split.sim.now == 0.3 * end
    split.sim.run(max_events=501)
    split.sim.run(until=0.7 * end)
    split.sim.run()
    got = _observable(split, split.collect())
    for name in want:
        assert got[name] == want[name], name


def test_fusion_is_on_only_where_the_transport_is_the_sole_rx_producer():
    def rx_kinds(overrides, **kwargs):
        cluster = _cluster("p3", overrides, **kwargs)
        fused = []
        for rx in cluster.rx_channels:
            try:
                rx.enqueue(Message(MsgKind.NOISE, -1, 1, 0, rx.machine,
                                   rx.machine, Role.WORKER))
                fused.append(False)
            except SimulationError:
                fused.append(True)
        return set(fused)

    assert rx_kinds(CONFIGS["plain"]) == {True}
    assert rx_kinds(CONFIGS["two_tier"]) == {True}
    assert rx_kinds(CONFIGS["plain"], link_cancellable=True) == {False}
    assert rx_kinds(CONFIGS["background"]) == {False}
    assert rx_kinds(CONFIGS["oversubscribed"]) == {True}  # fabric -> RX
