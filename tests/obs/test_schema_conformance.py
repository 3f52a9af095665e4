"""Cross-substrate schema conformance: one vocabulary, two producers.

The simulator and the live data plane must describe a run with the same
records.  Both halves run a comparable toy workload, validate every
emitted record against :data:`repro.obs.EVENT_SCHEMA`, and check that
each synchronization slice goes through the same lifecycle kinds on
either substrate.  The live half moves real bytes over localhost TCP
and is marked ``slow``.
"""

from __future__ import annotations

import pytest

from repro.models import toy_model
from repro.obs import (
    EventKind,
    kinds_per_slice,
    session_from_events,
    sim_session,
    validate_events,
)
from repro.sim import ClusterConfig, ClusterSim, simulate
from repro.strategies import p3
from tests.scenarios import SHAPED, live_cfg

#: The lifecycle every fully synchronized slice must traverse.  The
#: optional extra is slice_preempted, which only occurs under backlog.
LIFECYCLE = {
    EventKind.SLICE_ENQUEUED.value,
    EventKind.SLICE_SENT.value,
    EventKind.SLICE_APPLIED.value,
    EventKind.ROUND_APPLIED.value,
}


def _check_stream(events, n_slices_expected=None):
    assert validate_events(events) == len(events) > 0
    by_key = kinds_per_slice(events)
    assert by_key, "stream carries no slice events"
    if n_slices_expected is not None:
        assert len(by_key) == n_slices_expected
    for key, kinds in by_key.items():
        missing = LIFECYCLE - kinds
        assert not missing, f"slice {key} missing lifecycle kinds {missing}"
        extra = kinds - LIFECYCLE - {EventKind.SLICE_PREEMPTED.value}
        assert not extra, f"slice {key} has unexpected kinds {extra}"
    return by_key


def test_sim_stream_conforms():
    sess = sim_session()
    simulate(toy_model(), p3(),
             ClusterConfig(n_workers=2, bandwidth_gbps=1.0, seed=0),
             iterations=3, warmup=1, obs=sess)
    events = sess.events()
    by_key = _check_stream(events, n_slices_expected=len(toy_model().layers))
    assert all(e["source"] == "sim" for e in events)
    # Timestamps are simulated seconds starting at/after zero, ordered
    # per emission (the engine clock is monotonic).
    assert min(float(e["ts"]) for e in events) >= 0.0


def test_two_tier_stream_names_the_aggregators():
    """Regression: an aggregator's combined pushes were booked to
    ``worker{gid}`` and its PARAM fan-out to ``server{machine}``.  Every
    ``slice_sent`` row belongs to the node whose NIC sent it (loopback
    hops send nothing), and only a root shard *applies*: a combine job
    is neither a ``slice_applied`` nor a ``round_applied``."""
    iterations = 3
    sess = sim_session()
    cluster = ClusterSim(toy_model(), p3(),
                         ClusterConfig(n_workers=4, placement="two_tier",
                                       agg_group_size=2, seed=0), obs=sess)
    cluster.run(iterations=iterations, warmup=1)
    events = sess.events()
    _check_stream(events, n_slices_expected=len(cluster.keys))

    expected = {}
    for agg in cluster.aggregators:
        for w in agg.members:  # member pushes up, the PARAM fan-out back
            if cluster.worker_machine(w) != agg.machine:
                expected[f"worker{w}"] = len(cluster.keys) * iterations
                expected[agg.name] = (expected.get(agg.name, 0)
                                      + len(cluster.keys) * iterations)
        for pk in cluster.keys.values():  # combined pushes, root PARAMs
            if cluster.server_machine(pk.server) != agg.machine:
                expected[agg.name] = expected.get(agg.name, 0) + iterations
                root = f"server{pk.server}"
                expected[root] = expected.get(root, 0) + iterations
    sent = {}
    for e in events:
        if e["kind"] == EventKind.SLICE_SENT.value:
            sent[e["node"]] = sent.get(e["node"], 0) + 1
    assert sent == expected
    assert any(node.startswith("agg") for node in sent)

    applied = [e for e in events
               if e["kind"] in (EventKind.SLICE_APPLIED.value,
                                EventKind.ROUND_APPLIED.value)]
    assert len(applied) == 2 * len(cluster.keys) * iterations
    assert all(e["node"].startswith("server") for e in applied)


@pytest.mark.slow
def test_live_stream_conforms_and_matches_sim_vocabulary():
    from repro.live.aio import run_live_aio

    cfg = live_cfg(SHAPED, n_servers=1, fwd_layer_s=0.002, bwd_layer_s=0.004,
                   heartbeat_interval_s=0.25, observe=True)
    result = run_live_aio(cfg, strategy="p3")
    live_by_key = _check_stream(result.events)
    assert all(e["source"] == "live" for e in result.events)
    assert min(float(e["ts"]) for e in result.events) == 0.0, \
        "driver must rebase merged live streams to t=0"

    # The same model shape in the simulator produces the same per-slice
    # vocabulary: slices on either substrate traverse identical kinds
    # (modulo preemption, which depends on backlog).
    sess = sim_session()
    simulate(toy_model(), p3(),
             ClusterConfig(n_workers=2, bandwidth_gbps=1.0, seed=0),
             iterations=3, warmup=1, obs=sess)
    sim_by_key = _check_stream(sess.events())
    strip = {EventKind.SLICE_PREEMPTED.value}
    sim_vocab = {frozenset(k - strip) for k in sim_by_key.values()}
    live_vocab = {frozenset(k - strip) for k in live_by_key.values()}
    assert sim_vocab == live_vocab == {frozenset(LIFECYCLE)}

    # A live stream folds into the same instruments the sim populates.
    reg = session_from_events(result.events).registry
    for name in ("net.queue_delay_s", "net.wire_s", "net.slices_sent",
                 "worker.gate_wait_s", "server.rounds_applied"):
        assert name in reg.names()


@pytest.mark.slow
@pytest.mark.chaos
def test_same_fault_plan_same_event_vocabulary_on_both_substrates():
    """One FaultPlan, two substrates, one story.

    The simulator's injector and the live driver must describe the same
    plan with the same fault records, and faults must not change the
    per-slice lifecycle vocabulary on either side (recovery is invisible
    at the slice level — that is the bit-identity guarantee showing up
    in the observability stream).
    """
    from repro.live.aio import run_live_aio
    from repro.sim.faults import ChaosFault, FaultPlan

    # Permanent fault: exactly one fault_on per substrate, no fault_off,
    # so the expected fault stream is closed-form.
    plan = FaultPlan((ChaosFault(machine=-1, drop_rate=0.05,
                                 dup_rate=0.02),), seed=11)

    cfg = live_cfg(SHAPED, n_servers=1, fwd_layer_s=0.002, bwd_layer_s=0.004,
                   heartbeat_interval_s=0.25, observe=True, fault_plan=plan)
    result = run_live_aio(cfg, strategy="p3")
    live_by_key = _check_stream(result.events)

    sess = sim_session()
    simulate(toy_model(), p3(),
             ClusterConfig(n_workers=2, bandwidth_gbps=1.0, seed=0,
                           fault_plan=plan),
             iterations=3, warmup=1, obs=sess)
    sim_by_key = _check_stream(sess.events())

    def fault_records(events):
        return [(e["kind"], e["node"], e["detail"]) for e in events
                if e["kind"] in (EventKind.FAULT_ON.value,
                                 EventKind.FAULT_OFF.value)]

    expected = [(EventKind.FAULT_ON.value, "all", "chaos")]
    assert fault_records(result.events) == expected
    assert fault_records(sess.events()) == expected

    strip = {EventKind.SLICE_PREEMPTED.value}
    sim_vocab = {frozenset(k - strip) for k in sim_by_key.values()}
    live_vocab = {frozenset(k - strip) for k in live_by_key.values()}
    assert sim_vocab == live_vocab == {frozenset(LIFECYCLE)}
