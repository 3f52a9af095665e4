"""The overhead guarantee: observing a run must not change the run.

``repro.obs`` instruments only append to Python lists and accumulate
numbers — they never schedule simulator events, sleep, or touch an RNG.
This test pins the contract end to end: a monitored ``simulate()`` is
bit-identical (iteration timeline, event count, throughput) to an
unmonitored one.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.models import get_model
from repro.obs import sim_session, validate_events
from repro.sim import ClusterConfig, ClusterSim, simulate
from repro.sim.faults import FaultPlan, LinkFault
from repro.sim.network import TxQueue
from repro.strategies import baseline, p3


def _run(model, strategy, obs=None, **config):
    cfg = ClusterConfig(n_workers=2, bandwidth_gbps=1.0, seed=0, **config)
    return simulate(model, strategy, cfg, iterations=5, warmup=1,
                    trace_utilization=True, obs=obs)


def _assert_same_run(watched, plain):
    assert watched.mean_iteration_time == plain.mean_iteration_time
    assert watched.throughput == plain.throughput
    assert watched.events_processed == plain.events_processed
    np.testing.assert_array_equal(watched.iteration_times,
                                  plain.iteration_times)
    assert watched.iterations.records == plain.iterations.records
    assert (watched.utilization.records ==
            plain.utilization.records), \
        "observation must not add, drop, or move any transmission"


def test_observed_run_is_bit_identical(tiny_model):
    for strategy_factory in (baseline, p3):
        plain = _run(tiny_model, strategy_factory())
        sess = sim_session()
        watched = _run(tiny_model, strategy_factory(), obs=sess)
        _assert_same_run(watched, plain)
        assert len(sess.events()) > 0, "the watched run must record events"


@pytest.mark.parametrize("config", [
    # A link fault retimes in-flight completions under the observer.
    dict(fault_plan=FaultPlan((LinkFault(machine=0, rate_factor=0.5,
                                         start=0.01, duration=0.05),))),
    # Background tenants enqueue NOISE next to the slices on every TX
    # and take back what the RX channels had committed.
    dict(background_load=0.3),
], ids=["fault_plan", "background_load"])
def test_observed_run_is_bit_identical_on_dynamic_channels(skewed_model,
                                                           config):
    plain = _run(skewed_model, p3(), **config)
    sess = sim_session()
    watched = _run(skewed_model, p3(), obs=sess, **config)
    _assert_same_run(watched, plain)
    counts = sess.recorder.counts_by_kind()
    assert counts["slice_preempted"] > 0
    assert counts["slice_enqueued"] == counts["slice_sent"]


def test_observer_work_is_linear_in_pops():
    """The cost shape, not the cost: over a whole vgg19/p3 run every
    waiting-slice deque sees one append and one popleft per slice its
    channel sent and is never iterated, and a TX queue offers nothing to
    iterate it with."""

    class CountingDeque(deque):
        ops = 0

        def append(self, msg):
            self.ops += 1
            super().append(msg)

        def popleft(self):
            self.ops += 1
            return super().popleft()

        def __iter__(self):
            raise AssertionError("the observer scanned its waiting slices")

    assert not hasattr(TxQueue, "pending")
    sess = sim_session()
    cluster = ClusterSim(get_model("vgg19"), p3(),
                         ClusterConfig(n_workers=4, bandwidth_gbps=10.0,
                                       seed=0), obs=sess)
    for tx in cluster.tx_channels:
        tx.observer._waiting = CountingDeque()
    cluster.run(iterations=1, warmup=0)
    sent = sess.registry.counter("net.slices_sent").value
    assert sent > 10_000
    assert sess.registry.counter("net.preemptions").value > 10_000
    assert sum(tx.observer._waiting.ops
               for tx in cluster.tx_channels) == 2 * sent
    assert all(not tx.observer._waiting and not tx.observer._popped
               for tx in cluster.tx_channels)


def test_observed_events_conform_and_cover_the_run(tiny_model):
    sess = sim_session()
    result = _run(tiny_model, p3(), obs=sess)
    events = sess.events()
    assert validate_events(events) == len(events)
    counts = sess.recorder.counts_by_kind()
    n_layers = len(tiny_model.layers)
    n_iters = 5
    # Every worker opens every forward gate every iteration.
    assert counts["forward_gate_open"] == 2 * n_layers * n_iters
    assert counts["slice_enqueued"] == counts["slice_sent"]
    assert counts["round_applied"] >= 1
    assert result.events_processed > 0


def test_metrics_registry_populated_only_when_attached(tiny_model):
    sess = sim_session()
    _run(tiny_model, p3(), obs=sess)
    names = sess.registry.names()
    for expected in ("engine.now_s", "net.wire_s", "net.slices_sent",
                     "server.update_s", "worker.gate_wait_s"):
        assert expected in names, f"missing instrument {expected}"
    assert sess.registry.counter("net.slices_sent").value == \
        sess.registry.histogram("net.wire_s").count
