"""The checkers of :mod:`repro.sim.invariants` are not vacuous: each
detects the violation it names (lost messages or bytes, an unapplied
gradient, an undrained channel, a forward pass before its round).
That the invariants hold for every strategy, fault plan and placement
is the sim arm of the scenario harness
(``tests/integration/test_random_models.py``)."""

from __future__ import annotations

import pytest

from repro.sim import (
    ClusterConfig,
    ClusterSim,
    InvariantMonitor,
    InvariantViolation,
    simulate_checked,
)
from repro.strategies import p3


@pytest.fixture
def clean_monitor(tiny_model) -> InvariantMonitor:
    cfg = ClusterConfig(n_workers=2, bandwidth_gbps=1.0, seed=0)
    cluster = ClusterSim(tiny_model, p3(), cfg)
    monitor = InvariantMonitor(cluster)
    cluster.run(iterations=3, warmup=1)
    return monitor


def test_checker_detects_lost_message(clean_monitor):
    flow = next(iter(clean_monitor.delivered))
    clean_monitor.delivered[flow][0] -= 1
    with pytest.raises(InvariantViolation, match="sent"):
        clean_monitor.assert_message_conservation()


def test_checker_detects_lost_bytes(clean_monitor):
    flow = next(iter(clean_monitor.delivered))
    clean_monitor.delivered[flow][1] -= 1
    with pytest.raises(InvariantViolation, match="B"):
        clean_monitor.assert_message_conservation()


def test_checker_detects_unapplied_gradient(clean_monitor):
    key = next(iter(clean_monitor.pushes_delivered))
    clean_monitor.pushes_delivered[key] += 1
    with pytest.raises(InvariantViolation, match="exactly|update jobs"):
        clean_monitor.assert_updates_exactly_once()


def test_checker_detects_undrained_channel(clean_monitor):
    ch = clean_monitor.cluster.tx_channels[0]
    clean_monitor.channel_completed[(ch.machine, ch.direction)] -= 64
    with pytest.raises(InvariantViolation, match="completed"):
        clean_monitor.assert_channels_drained()


def test_forward_gating_violation_detected(tiny_model):
    """A buggy gate that opens before the round's parameters actually
    arrived must trip the monitor's independent delivery ledger."""
    cfg = ClusterConfig(n_workers=2, bandwidth_gbps=0.2, seed=0)
    cluster = ClusterSim(tiny_model, p3(), cfg)
    InvariantMonitor(cluster)

    def force_gate_open():
        worker = cluster.workers[0]
        if worker.waiting_forward and not worker.done:
            # Fake the worker's own bookkeeping into believing the
            # round completed; the monitor counts real deliveries.
            worker.params_arrived[:] = worker.keys_per_layer
            worker._try_forward_layer()
        elif not worker.done:
            cluster.sim.schedule(1e-4, force_gate_open)

    cluster.sim.schedule(1e-4, force_gate_open)
    with pytest.raises(InvariantViolation, match="forward"):
        cluster.run(iterations=3, warmup=1)


def test_monitor_is_pure_observation(tiny_model):
    """Attaching the monitor must not change simulated behaviour."""
    cfg = ClusterConfig(n_workers=2, bandwidth_gbps=1.0, seed=0)
    plain = ClusterSim(tiny_model, p3(), cfg).run(iterations=4, warmup=1)
    watched_cluster = ClusterSim(tiny_model, p3(), cfg)
    InvariantMonitor(watched_cluster)
    watched = watched_cluster.run(iterations=4, warmup=1)
    assert watched.mean_iteration_time == plain.mean_iteration_time
    assert watched.events_processed == plain.events_processed


def test_simulate_checked_returns_result(tiny_model):
    result = simulate_checked(tiny_model, p3(),
                              ClusterConfig(n_workers=2, bandwidth_gbps=1.0),
                              iterations=3, warmup=1)
    assert result.throughput > 0
