"""A finished run frees itself: no reference cycle outlives a simulation.

Every check turns the cyclic collector off for the call, so whatever the
call leaves behind in reference cycles is still there for
``gc.collect()`` to count; a released run leaves nothing.  Everything
older than the call is frozen first, so that collection looks at the
call's objects only and stays cheap in a large test process.
"""

from __future__ import annotations

import gc
import os
import tracemalloc

import pytest

from repro.analysis.runner import SimPoint, run_grid
from repro.analysis.warmstart import execute_family
from repro.models import get_model
from repro.obs import export_chrome_trace, validate_events
from repro.obs.registry import sim_session
from repro.sim import ClusterConfig, ClusterSim, SimulationError, simulate
from repro.sim.invariants import InvariantMonitor, simulate_checked
from repro.strategies import STRATEGY_FACTORIES, get_strategy
from repro.tenancy import JobSpec, MultiJobSim, TenancyConfig, run_multi_job

from ..scenarios import FAULT_PLANS, PLACEMENTS, fitted

TOY = get_model("toy3")


def cyclic_garbage_after(call) -> int:
    """Objects ``call()`` leaves in reference cycles.

    ``call`` runs once first, so imports and caches it fills on first
    use are not counted."""
    call()
    enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    try:
        call()
        return gc.collect()
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


def run(strategy: str = "p3", obs=None, **config) -> None:
    fields = dict(n_workers=4, agg_group_size=2)
    fields.update(config)
    simulate(TOY, get_strategy(strategy), ClusterConfig(**fields),
             iterations=3, warmup=1, obs=obs)


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("strategy", sorted(STRATEGY_FACTORIES))
def test_a_finished_run_leaves_no_cycle(strategy, placement):
    if placement == "two_tier" and get_strategy(strategy).async_updates:
        pytest.skip("two_tier x ASGD is refused before anything is built")
    assert cyclic_garbage_after(
        lambda: run(strategy, placement=placement)) == 0


def test_a_faulted_run_leaves_no_cycle():
    cfg = ClusterConfig(n_workers=2)
    plan = fitted(FAULT_PLANS["combined"], cfg, TOY.iteration_compute_time())
    assert plan is not None
    assert cyclic_garbage_after(
        lambda: run(n_workers=2, fault_plan=plan)) == 0


def test_a_run_with_background_load_leaves_no_cycle():
    assert cyclic_garbage_after(lambda: run(background_load=0.3)) == 0


def test_an_oversubscribed_run_leaves_no_cycle():
    assert cyclic_garbage_after(lambda: run(oversubscription=2.0)) == 0


def test_an_observed_run_leaves_no_cycle():
    assert cyclic_garbage_after(lambda: run(obs=sim_session())) == 0


def test_a_warm_started_family_leaves_no_cycle():
    docs = [SimPoint("toy3", get_strategy("p3"),
                     ClusterConfig(n_workers=2, bandwidth_gbps=bw),
                     iterations=10, warmup=1).to_doc()
            for bw in (5.0, 10.0)]
    assert cyclic_garbage_after(lambda: execute_family(docs)) == 0


def test_a_multi_job_run_leaves_no_cycle():
    jobs = [JobSpec(f"j{i}", f"t{i % 2}", n_workers=2, iterations=3,
                    warmup=1, arrival_s=0.001 * i) for i in range(3)]
    assert cyclic_garbage_after(
        lambda: MultiJobSim(jobs, TenancyConfig(n_slots=4)).run()) == 0


def test_a_monitored_run_leaves_no_more_than_a_plain_one():
    """The invariant monitor's wrappers close over the monitor and the
    parts they are set on; it deletes them once the run is asserted."""
    fields = dict(n_workers=4)
    plain = cyclic_garbage_after(
        lambda: simulate(TOY, get_strategy("p3"), ClusterConfig(**fields),
                         iterations=3, warmup=1))
    checked = cyclic_garbage_after(
        lambda: simulate_checked(TOY, get_strategy("p3"),
                                 ClusterConfig(**fields), iterations=3,
                                 warmup=1))
    assert checked <= plain == 0


def test_a_monitored_multi_job_run_leaves_no_cycle():
    jobs = [JobSpec(f"j{i}", f"t{i % 2}", n_workers=2, iterations=3,
                    warmup=1, arrival_s=0.001 * i) for i in range(3)]
    assert cyclic_garbage_after(lambda: run_multi_job(
        jobs, TenancyConfig(n_slots=4), monitor=True)) == 0


def test_a_released_monitor_keeps_its_counters():
    cluster = ClusterSim(TOY, get_strategy("p3"), ClusterConfig(n_workers=2))
    monitor = InvariantMonitor(cluster)
    cluster.run(iterations=3, warmup=1)
    monitor.assert_all_final()
    before = monitor.summary()
    monitor.release()
    assert monitor.summary() == before and before["events"] > 0
    assert monitor.cluster is None
    for worker in cluster.workers:
        assert "_on_param" not in vars(worker)
    assert "step" not in vars(cluster.sim)
    monitor.release()  # idempotent


def test_a_released_cluster_stays_readable_and_refuses_to_run():
    cluster = ClusterSim(TOY, get_strategy("p3"), ClusterConfig(n_workers=2))
    result = cluster.run(iterations=3, warmup=1)
    assert len(cluster.iterations.worker_iterations(0)) == 3
    assert all(ch.messages_transferred > 0 and not ch.busy
               for ch in cluster.tx_channels)
    assert sum(s.updates_done for s in cluster.servers) > 0
    assert result.throughput > 0
    for start in (lambda: cluster.start_run(3, 1),
                  lambda: cluster.run(iterations=3, warmup=1)):
        with pytest.raises(SimulationError, match=r"model=toy3.*strategy=p3"):
            start()


@pytest.mark.perf
def test_a_sweep_holds_one_points_memory():
    """Five resnet50 points in one ``run_grid`` call, collector off: the
    memory traced afterwards is back within a quarter of one point's
    peak of where it started."""
    points = [SimPoint("resnet50", get_strategy("p3"),
                       ClusterConfig(n_workers=4, bandwidth_gbps=bw),
                       iterations=2, warmup=1)
              for bw in (2.0, 4.0, 6.0, 8.0, 10.0)]
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        # One point first: its peak is the yardstick, and what it leaves
        # in first-use caches is not the sweep's to answer for.
        run_grid(points[:1])
        base, one_point = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        run_grid(points)
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert left <= one_point / 4, (
        f"{left / 2**20:.2f} MiB still traced after the sweep; one point "
        f"peaks at {one_point / 2**20:.2f} MiB")


@pytest.mark.perf
def test_reading_an_observed_run_copies_no_record(tmp_path):
    """A recorded stream is read from its rows.  On a resnet50/p3
    2-worker point (5 400 events) ``events()`` and ``validate_events``
    together peak at one pointer per event, not a dict per event (about
    480 B); the Chrome export peaks at the text of one batch of
    instants, about 550 B per event here."""
    sess = sim_session()
    simulate(get_model("resnet50"), get_strategy("p3"),
             ClusterConfig(n_workers=2, bandwidth_gbps=1.0, seed=0),
             iterations=1, warmup=0, obs=sess)
    n = len(sess.recorder)
    assert n > 5000
    path = os.fspath(tmp_path / "trace.json")
    export_chrome_trace(path, events=sess.events())  # first-use caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        events = sess.events()
        assert validate_events(events) == n
        read = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        export_chrome_trace(path, events=events)
        export = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert read < 32 * n, f"reading peaked at {read / n:.0f} B per event"
    assert export < 640 * n, f"export peaked at {export / n:.0f} B per event"
