"""End-to-end live cluster tests: conformance, chaos, teardown.

Every test pits the live cluster (:func:`repro.live.aio.run_live_aio`:
real sockets, one event loop) against an independent ground truth:

* **Conformance** — the live arm of ``tests/scenarios.py``: any drawn
  cluster (strategy, placement, workers, shards) trains to final
  parameters bit-identical to
  :func:`repro.analysis.calibration.run_inprocess`, and so it does
  over a lossy link (the ``chaos`` twin), where recovery must happen.
* **Reply rule** — pure push: a worker sends its pushes and one ``BYE``
  per shard, and a node that receives a kind no node sends
  (``PULL_REQ``, ``JOIN``, ``EPOCH``) fails by name.
* **Timing** — P3 front-loads the first layer on a backlogged link,
  and ``calibrate()`` agrees in sign with the simulator; it also
  completes, bit-identical, with 64 workers on one event loop.
* **Teardown** — a run that succeeds leaves no task or socket behind;
  a worker or shard that dies mid-round is a prompt ``LiveRunError``
  naming it, and leaves none either.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import os
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.calibration import (calibrate, calibrate_faults,
                                        run_inprocess)
from repro.live import (LiveAggregatorError, LiveClusterConfig, LiveRunError,
                        LiveRunResult)
from repro.live.aio import (AioAggregator, AioServerShard, AioWorker,
                            run_live_aio)
from repro.live.aio.driver import _run_cluster, leaving_no_task
from repro.live.transport import (BARRIER_PRIORITY, CONTROL_PRIORITY,
                                  RELIABLE_KINDS)
from repro.live.wire import WIRE_BYTES_PER_PARAM, WireKind, encode_frame
from tests.scenarios import (LOSSY, LOSSY_LINK, SHAPED, live_cfg,
                             live_scenarios, pinned)

pytestmark = pytest.mark.slow


def transport_totals(per_worker: dict) -> dict:
    """Sum per-worker transport counters (``transport_stats``)."""
    totals: dict = {}
    for stats in per_worker.values():
        for k, v in stats.items():
            totals[k] = totals.get(k, 0) + v
    return totals


def assert_params_equal(got, want, context=""):
    assert set(got) == set(want)
    for name in want:
        np.testing.assert_array_equal(
            got[name], want[name],
            err_msg=f"{context}: {name} diverged")


def matches_oracle(cfg: LiveClusterConfig) -> LiveRunResult:
    """Run ``cfg`` live and hold its final parameters to the oracle's."""
    live = run_live_aio(cfg)
    ref = run_inprocess(cfg)
    assert_params_equal(live.final_params, ref, "live")
    return live


#: Two-tier: 4 workers in groups of 2 behind their aggregators.
TWO_TIER = dict(n_workers=4, batch_size=8, placement="two_tier",
                agg_group_size=2)

#: The live arm's regression corpus.
LIVE_CORPUS = [
    *[live_cfg(strategy=strategy, **topology)
      for topology in (dict(placement="round_robin"),
                       dict(placement="balanced"), TWO_TIER)
      for strategy in ("baseline", "p3")],
    # Sliced keys, a hot key `balanced` splits and a real aggregator node
    # (values depend on neither link nor compute: neither is emulated).
    *[live_cfg(SHAPED, n_workers=4, placement=placement, strategy="p3",
               rate_bytes_per_s=None, fwd_layer_s=0.0, bwd_layer_s=0.0,
               placement_split_factor=1.2, placement_max_splits=3,
               agg_group_size=2)
      for placement in ("round_robin", "balanced", "two_tier")],
]


@pinned(LIVE_CORPUS)
@given(live_scenarios())
@settings(max_examples=10, deadline=None, derandomize=True)
def test_random_live_clusters_match_reference(cfg):
    """Property, end to end: ANY cluster the scenario vocabulary draws —
    strategy, placement, workers and shards — trains to the exact values
    of the in-process oracle."""
    matches_oracle(cfg)


#: The chaos twin's regression corpus: runs long enough that chaos must
#: bite near its configured rate (a small draw may get through whole).
LOSSY_CORPUS = [
    live_cfg(LOSSY_LINK, strategy=strategy, **topology)
    for strategy, topology in (("baseline", TWO_TIER), ("p3", TWO_TIER),
                               ("p3", {}))]


@pytest.mark.chaos
@pinned(LOSSY_CORPUS)
@given(live_scenarios(LOSSY_LINK))
@settings(max_examples=2, deadline=None, derandomize=True)
def test_random_scenarios_match_reference_over_a_lossy_link(cfg):
    """The same space with frames dropped, duplicated and corrupted on
    every connection — also behind aggregators: Go-Back-N recovery keeps
    the values exactly equal to the clean oracle's."""
    totals = transport_totals(matches_oracle(cfg).transport_stats)
    if cfg in LOSSY_CORPUS:  # chaos bit, near the configured 8%
        assert totals["frames_dropped"] >= 0.025 * totals["frames_seen"]
    # Recovery happened, and every reliable frame was acknowledged.
    assert totals["frames_retransmitted"] > 0 or not totals["frames_dropped"]
    assert totals["acks_received"] > 0 and totals["unacked_frames"] == 0


def test_a_static_run_plans_its_keys_once(monkeypatch):
    """The driver plans the run's one table and every node and the
    shards' numerics are handed it; nothing plans a second time."""
    from repro.placement import plan_keys
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return plan_keys(*args, **kwargs)

    for name, module in list(sys.modules.items()):  # every importer
        if name.startswith("repro") and vars(module).get(
                "plan_keys") is plan_keys:
            monkeypatch.setattr(module, "plan_keys", counted)
    run_live_aio(live_cfg())
    assert len(calls) == 1


def test_aio_reports_the_run_result_schema():
    """Iteration times, TX timelines, heartbeats, and transport counters
    all reach the :class:`LiveRunResult`."""
    cfg = live_cfg(strategy="p3", rate_bytes_per_s=5_000_000.0,
                   chunk_bytes=4096, heartbeat_interval_s=0.002)
    result = run_live_aio(cfg)
    for wid in range(cfg.n_workers):
        times = result.iteration_times[wid]
        assert len(times) == cfg.iterations
        assert (times > 0).all()
        assert result.timelines[wid], "every worker must record tx chunks"
        assert "frames_retransmitted" in result.transport_stats[wid]
    assert result.mean_iteration_time > 0 and result.throughput > 0
    assert result.utilization(worker=0).total_bytes(0, "tx") > 0
    assert result.goodput_bytes_per_s(0) > 0
    assert sum(result.heartbeat_acks.values()) > 0, \
        "liveness traffic must cross the cluster while gradients move"


@pytest.mark.parametrize("strategy", ["baseline", "p3"])
def test_workers_only_push(strategy):
    """The paper's reply rule: a shard answers every contributor of a
    round when it applies it, so a worker's sequenced frames are its
    PUSH chunks plus one ``BYE`` per shard — nothing asks for a value,
    and no handshake precedes the pushes.  (With a ``PULL_REQ`` behind
    every ``PUSH`` this count was one frame per key per round higher;
    with the membership handshake, one ``JOIN`` per shard higher.)"""
    cfg = live_cfg(strategy=strategy, chunk_bytes=256)
    result = run_live_aio(cfg)
    plan = cfg.key_plan()
    push_frames = cfg.iterations * sum(
        -(-pk.params * WIRE_BYTES_PER_PARAM // cfg.chunk_bytes)
        for pk in plan)
    tokens = cfg.n_servers  # one BYE per shard
    for wid, records in result.timelines.items():
        kinds = [WireKind(r.kind) for r in records]
        assert not {WireKind.PULL_REQ, WireKind.JOIN, WireKind.LEAVE,
                    WireKind.EPOCH} & set(kinds)
        assert set(kinds) <= {WireKind.PUSH, WireKind.BYE,
                              WireKind.HEARTBEAT, WireKind.CHUNK_ACK}
        assert kinds.count(WireKind.PUSH) == push_frames
        assert sum(k in RELIABLE_KINDS for k in kinds) \
            == push_frames + tokens, f"worker {wid}"


def test_p3_sends_urgent_layers_earlier_than_baseline():
    """On the wire, P3 must front-load the forward-urgent first layer:
    the mean transmission rank of its PUSH chunks drops vs the baseline."""
    def mean_rank_of_first_layer(cfg, result):
        plan = cfg.key_plan()
        first_keys = {pk.key for pk in plan.by_layer[0]}
        ranks = []
        for records in result.timelines.values():
            data = [r for r in records if r.kind == 1]  # PUSH chunks
            ranks += [rank / max(1, len(data) - 1)
                      for rank, rec in enumerate(data)
                      if rec.key in first_keys]
        assert ranks, "no PUSH chunks recorded for the first layer"
        return float(np.mean(ranks))

    # Backlog the link so several pushes queue at once: fast backward
    # emission (1 ms/layer) against a slow shaped wire (150 kB/s).
    # Otherwise each push drains before the next is enqueued and the
    # heap degenerates to FIFO for both strategies.
    ranks = {}
    for strategy in ("baseline", "p3"):
        cfg = live_cfg(SHAPED, strategy=strategy, hidden=64, iterations=2,
                       warmup=0, fwd_layer_s=0.001, bwd_layer_s=0.001,
                       rate_bytes_per_s=150_000.0, chunk_bytes=1_024)
        ranks[strategy] = mean_rank_of_first_layer(cfg, run_live_aio(cfg))
    # Baseline emits in generation order => layer 0 last; P3 pulls it up.
    assert ranks["p3"] < ranks["baseline"]


@pytest.mark.chaos
def test_fault_calibration_runs_the_plan_through_the_live_cluster():
    report = calibrate_faults(live_cfg(SHAPED, ack_timeout_s=0.05),
                              plan=LOSSY)
    assert report.bit_identical_under_faults
    totals = transport_totals(report.live_transport_stats)
    assert totals["frames_dropped"] > 0 < totals["frames_retransmitted"]


# ----------------------------------------------------------------------
# Calibration against the simulator, small and at scale
# ----------------------------------------------------------------------
def test_calibration_report_end_to_end():
    """Bit-identity plus sign agreement with the simulator's prediction,
    within the documented tolerance."""
    report = calibrate(live_cfg(SHAPED, iterations=4))
    assert report.bit_identical
    assert report.max_abs_diff == 0.0
    assert report.sim_speedup > 1.0, \
        "at 1 MB/s the simulator must predict a P3 win for this workload"
    assert report.agrees(tolerance=0.5), (
        f"live speedup {report.live_speedup:.2f}x disagrees in sign with "
        f"sim {report.sim_speedup:.2f}x beyond tolerance")
    summary = report.summary()
    assert "bit-identical" in summary and "YES" in summary


def test_calibrate_completes_at_64_workers_on_one_event_loop():
    """A full calibrate() — baseline + P3, live vs in-process — with 64
    workers (128 worker-shard connections) on a single event loop."""
    cfg = live_cfg(n_workers=64, iterations=3, batch_size=64, n_train=128,
                   n_val=16, fwd_layer_s=0.0005, bwd_layer_s=0.001,
                   rate_bytes_per_s=50_000_000.0, chunk_bytes=4096,
                   heartbeat_interval_s=0.5)
    report = calibrate(cfg)
    assert report.bit_identical, \
        f"64-worker aio run diverged (max |diff| = {report.max_abs_diff})"
    assert report.live_baseline_s > 0 and report.live_p3_s > 0


# ----------------------------------------------------------------------
# Teardown: nothing outlives a run, whether it succeeds or fails
# ----------------------------------------------------------------------
def run_and_audit(cfg):
    """One cluster on a loop this test owns, and what it left behind:
    ``(result or LiveRunError, pending task names, leaked sockets)``."""
    async def main():
        fds = len(os.listdir("/proc/self/fd"))
        try:
            outcome = await _run_cluster(cfg)
        except LiveRunError as exc:
            outcome = exc
        await asyncio.sleep(0.05)  # a closed transport frees its fd a pass later
        gc.collect()               # an orphan task dies here, loudly
        me = asyncio.current_task()
        pending = sorted(t.get_name() for t in asyncio.all_tasks()
                         if t is not me and not t.done())
        return outcome, pending, len(os.listdir("/proc/self/fd")) - fds
    return asyncio.run(main())


@pytest.mark.parametrize("overrides", [
    pytest.param({}, id="clean"),
    pytest.param(LOSSY_LINK, marks=pytest.mark.chaos, id="lossy")])
def test_successful_run_leaves_no_task_or_socket_behind(overrides, caplog):
    """Regression: shards never closed the connections they accepted, so
    their drain tasks were garbage-collected mid-wait."""
    with warnings.catch_warnings(record=True) as caught, \
            caplog.at_level(logging.ERROR, logger="asyncio"):
        warnings.simplefilter("always", ResourceWarning)
        outcome, pending, leaked_fds = run_and_audit(live_cfg(**overrides))
        gc.collect()
    assert isinstance(outcome, LiveRunResult), outcome
    assert pending == [] and leaked_fds == 0
    assert not caplog.records, caplog.text  # "Task was destroyed but ..."
    assert not caught, [str(w.message) for w in caught]


def test_the_run_result_is_never_formatted_on_the_way_out(monkeypatch):
    """Regression: the result used to ride ``asyncio.run``'s main task,
    and restoring the SIGINT handler wrapped around that task makes
    ``signal`` format it — ``repr()`` of every ``ChunkRecord`` of the
    run, twice, into an error message nobody reads (0.2 s and 5 MiB on
    the benchmark's job).  Whatever the entry point becomes, tear-down
    must not reach ``LiveRunResult.__repr__``."""
    formatted = []
    monkeypatch.setattr(LiveRunResult, "__repr__",
                        lambda self: formatted.append(1) or "<result>")
    result = run_live_aio(live_cfg())
    assert isinstance(result, LiveRunResult)
    assert formatted == []


def test_standing_check_names_a_task_left_pending():
    async def leaky():
        orphan = asyncio.get_running_loop().create_task(
            asyncio.sleep(60), name="orphan-drain")
        return orphan  # referenced, pending, and nobody's to stop

    with pytest.raises(LiveRunError, match="orphan-drain"):
        asyncio.run(leaving_no_task(leaky()))


async def _dying_iteration(self, params, t, real=AioWorker._iteration):
    if self.wid == 1 and t == 1:
        raise RuntimeError("boom")
    await real(self, params, t)


def _failing_apply(self, key, real=AioServerShard._apply_ready):
    if self.sid == 0 and self.pushes_received > 3:
        raise RuntimeError("boom")
    real(self, key)


async def _dying_watchdog(self, conns, real=AioWorker._watchdog):
    if self.wid == 1:
        raise RuntimeError("boom")  # inside the spawned task, mid-round 0
    await real(self, conns)


@pytest.mark.parametrize("cls, method, patch, victim, topology", [
    (AioWorker, "_iteration", _dying_iteration, "worker1", {}),
    (AioServerShard, "_apply_ready", _failing_apply, "shard 0", {}),
    (AioWorker, "_watchdog", _dying_watchdog, "worker1", {}),
    (AioWorker, "_iteration", _dying_iteration, "worker1",
     dict(n_workers=4, batch_size=8, placement="two_tier",
          agg_group_size=2))],
    ids=["worker", "shard", "worker-spawned-task", "two-tier-member"])
def test_node_dying_mid_round_fails_fast_naming_it(monkeypatch, cls, method,
                                                  patch, victim, topology):
    """A dead worker or shard is a prompt, attributed LiveRunError — its
    peers must not sit out their 60 s round timeouts — and the failed
    run still leaves no task pending and no socket open.  A dead group
    member ends its aggregator's wait for the members' BYEs the same way."""
    monkeypatch.setattr(cls, method, patch)
    start = time.monotonic()
    outcome, pending, leaked_fds = run_and_audit(live_cfg(**topology))
    elapsed = time.monotonic() - start
    assert isinstance(outcome, LiveRunError), "the run must fail"
    assert victim in str(outcome) and "boom" in str(outcome)
    assert elapsed < 5.0, f"fail-fast took {elapsed:.1f}s — that is a hang"
    assert pending == [] and leaked_fds == 0


def _worker_sending(kind):
    """``AioWorker._iteration`` with worker 1 sending ``kind`` to its
    first peer at round 1."""
    async def _iteration(self, params, t, real=AioWorker._iteration):
        if self.wid == 1 and t == 1:
            self.conns[0].sender.send(kind, 0, t, BARRIER_PRIORITY)
        await real(self, params, t)
    return _iteration


def _announcing_apply(self, key, real=AioServerShard._apply_ready):
    """Shard 0 sends worker 1 an ``EPOCH`` once its first key's first
    round is applied."""
    real(self, key)
    if self.sid == 0 and key == min(self.my_keys) and self.version[key] == 1:
        self.client_senders[1].send(WireKind.EPOCH, 0, 0, CONTROL_PRIORITY)


@pytest.mark.parametrize("topology, cls, method, patch, receiver, kind, "
                         "source, sender", [
    (dict(), AioWorker, "_iteration", _worker_sending(WireKind.PULL_REQ),
     "server0", "PULL_REQ", "server0-conn", 1),
    (dict(n_workers=4, batch_size=8, placement="two_tier",
          agg_group_size=2), AioWorker, "_iteration",
     _worker_sending(WireKind.PULL_REQ), "agg0", "PULL_REQ", "agg0-conn", 1),
    (dict(), AioWorker, "_iteration", _worker_sending(WireKind.JOIN),
     "server0", "JOIN", "server0-conn", 1),
    (dict(), AioServerShard, "_apply_ready", _announcing_apply,
     "worker1", "EPOCH", "server0", 0)],
    ids=["worker-to-shard", "member-to-aggregator", "join-to-shard",
         "epoch-to-worker"])
def test_a_pull_request_fails_the_peer_that_receives_it(
        monkeypatch, topology, cls, method, patch, receiver, kind, source,
        sender):
    """``PULL_REQ``, ``JOIN`` and ``EPOCH`` are on no node's protocol: a
    worker that sends one ends its shard (or its group's aggregator) at
    once, and a shard that sends one ends the worker, with the kind and
    the sender in the error — not a silently ignored frame, and not a
    hang."""
    monkeypatch.setattr(cls, method, patch)
    start = time.monotonic()
    outcome, pending, leaked_fds = run_and_audit(live_cfg(**topology))
    elapsed = time.monotonic() - start
    assert isinstance(outcome, LiveRunError), "the run must fail"
    assert f"{receiver}: unexpected {kind} from {source}" in str(outcome)
    assert f"(sender id {sender})" in str(outcome)
    assert elapsed < 5.0, f"fail-fast took {elapsed:.1f}s — that is a hang"
    assert pending == [] and leaked_fds == 0


def test_aggregator_fails_loudly_on_an_unexpected_upstream_frame():
    """Regression: the aggregator dropped every upstream kind except
    ``PULL_RESP`` on the floor, where a worker or a shard fails the node.
    A root that answers the heartbeat probe with ``ACK`` and then sends
    an ``EPOCH`` (no business of a static topology) must end the
    aggregator at once, naming the kind and the peer."""
    cfg = live_cfg(n_servers=1, placement="two_tier", agg_group_size=3)

    async def main():
        async def root(reader, writer):
            for kind in (WireKind.ACK, WireKind.EPOCH):
                writer.write(encode_frame(kind, 0, 0, 0, 0))
            await writer.drain()
            await reader.read()  # until the aggregator hangs up
            writer.close()

        server = await asyncio.start_server(root, cfg.host, 0)
        agg = AioAggregator(0, cfg, cfg.key_plan())
        try:
            await agg.start([server.sockets[0].getsockname()[:2]])
            with pytest.raises(LiveAggregatorError,
                               match="unexpected EPOCH from server0"):
                await asyncio.wait_for(agg.run(), 5.0)
            assert agg.heartbeat_acks == 1
        finally:
            agg.abort()
            await agg.wait_closed()
            server.close()
            await server.wait_closed()

    asyncio.run(leaving_no_task(main()))
