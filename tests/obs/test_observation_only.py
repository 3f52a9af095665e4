"""What observing a run costs and records.  ``repro.obs`` instruments
only append to lists and accumulate numbers, so an observed run is
bit-identical to an unobserved one — checked on every draw of the sim
arm (``tests/integration/test_random_models.py``)."""

from __future__ import annotations

from collections import deque

from repro.models import get_model
from repro.obs import sim_session, validate_events
from repro.sim import ClusterConfig, ClusterSim, simulate
from repro.sim.network import TxQueue
from repro.strategies import p3


def _run(model, strategy, obs=None, **config):
    cfg = ClusterConfig(n_workers=2, bandwidth_gbps=1.0, seed=0, **config)
    return simulate(model, strategy, cfg, iterations=5, warmup=1,
                    trace_utilization=True, obs=obs)


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
