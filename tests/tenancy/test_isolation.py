"""Tenant isolation: sharing a cluster must not perturb a lone job.

Two guarantees, both exact (no tolerances):

* **Bit-identity when alone** — a single-tenant workload pushed through
  :class:`MultiJobSim` produces results bit-identical to the standalone
  :func:`repro.sim.simulate` path with the same config, for every
  placement policy.  The multi-tenant machinery must be zero-overhead
  and zero-perturbation when there is nothing to arbitrate.
* **Determinism under contention** — the same multi-tenant workload run
  twice gives identical ledgers and identical per-job iteration times
  (seeded, no wall-clock leakage into the sim substrate).

The cross-job invariant monitor rides along in both: no message may
cross a job boundary and each job's exactly-once ledger must balance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import get_model
from repro.sim import ClusterConfig, simulate
from repro.strategies import get_strategy
from repro.tenancy import JobSpec, TenancyConfig, run_multi_job

pytestmark = pytest.mark.tenancy

MODEL = "toy3"
BANDWIDTH = 1.0
PLACEMENTS = ("round_robin", "balanced", "two_tier")


def lone_job(placement: str) -> JobSpec:
    return JobSpec(name="only", tenant="t0", model=MODEL, strategy="p3",
                   n_workers=4, iterations=6, warmup=2,
                   placement=placement)


def reference(job: JobSpec, bandwidth: float):
    # Mirror MultiJobSim._launch's ClusterConfig exactly.
    cfg = ClusterConfig(
        n_workers=job.n_workers, bandwidth_gbps=bandwidth,
        latency_s=50e-6, compute_scale=1.0, placement=job.placement,
        agg_group_size=min(4, job.n_workers), seed=job.seed)
    return simulate(get_model(MODEL), get_strategy(job.strategy),
                    cfg, iterations=job.iterations, warmup=job.warmup)


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_single_tenant_bit_identical(placement: str) -> None:
    job = lone_job(placement)
    cfg = TenancyConfig(n_slots=4, bandwidth_gbps=BANDWIDTH,
                        policy="weighted")
    multi = run_multi_job([job], cfg, monitor=True)
    ref = reference(job, BANDWIDTH)
    got = multi.jobs["only"].result
    assert np.array_equal(got.iteration_times, ref.iteration_times)
    assert got.throughput == ref.throughput
    assert got.steady_start == ref.steady_start
    assert got.steady_end == ref.steady_end
    assert got.per_worker_throughput == ref.per_worker_throughput
    # And the job's clock: completed exactly when the standalone run ends.
    assert multi.jobs["only"].admitted_s == 0.0


@pytest.mark.parametrize("policy", ("weighted", "equal", "none"))
def test_contended_run_is_deterministic(policy: str) -> None:
    def workload():
        return [
            JobSpec(name="a", tenant="alpha", model=MODEL, strategy="p3",
                    n_workers=2, iterations=5, warmup=1, weight=2.0),
            JobSpec(name="b", tenant="beta", model=MODEL,
                    strategy="baseline", n_workers=2, iterations=5,
                    warmup=1, weight=1.0),
            JobSpec(name="c", tenant="alpha", model=MODEL, strategy="p3",
                    n_workers=2, iterations=4, warmup=1, weight=2.0,
                    arrival_s=0.5),
        ]

    cfg = TenancyConfig(n_slots=6, bandwidth_gbps=BANDWIDTH, policy=policy)
    r1 = run_multi_job(workload(), cfg, monitor=True)
    r2 = run_multi_job(workload(), cfg, monitor=True)
    assert [(e.t, e.kind, e.job) for e in r1.log] == [
        (e.t, e.kind, e.job) for e in r2.log]
    for name in r1.jobs:
        t1 = r1.jobs[name].iteration_times()
        t2 = r2.jobs[name].iteration_times()
        assert np.array_equal(t1, t2)
        assert r1.jobs[name].completed_s == r2.jobs[name].completed_s


def test_contention_slows_but_preserves_results() -> None:
    """Sanity anchor for the sweep: two jobs sharing the link each run
    slower than alone, and fair sharing keeps the slowdown bounded by
    ~the contender count (fluid model, equal weights)."""
    alone = reference(lone_job("round_robin"), BANDWIDTH)
    jobs = [
        JobSpec(name="x", tenant="tx", model=MODEL, strategy="p3",
                n_workers=4, iterations=6, warmup=2),
        JobSpec(name="y", tenant="ty", model=MODEL, strategy="p3",
                n_workers=4, iterations=6, warmup=2),
    ]
    res = run_multi_job(jobs, TenancyConfig(
        n_slots=8, bandwidth_gbps=BANDWIDTH, policy="equal"), monitor=True)
    for name in ("x", "y"):
        mean = float(res.jobs[name].iteration_times().mean())
        assert mean > alone.mean_iteration_time          # contention bites
        assert mean < 2.5 * alone.mean_iteration_time    # but fairly
    # Symmetric jobs, equal shares: identical iteration profiles.
    assert np.array_equal(res.jobs["x"].iteration_times(),
                          res.jobs["y"].iteration_times())


def test_monitor_detects_cross_job_delivery() -> None:
    """Non-vacuity for the cross-job ledger: hand one job's in-flight
    message to the other job's deliver endpoint and the monitor must
    flag the boundary crossing (key/machine ids are job-local and
    numerically identical across jobs, so only identity tracking can
    catch this)."""
    from repro.sim.engine import Simulator
    from repro.sim.invariants import (
        InvariantViolation,
        MultiJobInvariantMonitor,
    )

    sim = Simulator()
    cfg = ClusterConfig(n_workers=2, bandwidth_gbps=1.0,
                        agg_group_size=2, seed=0)
    model, strat = get_model(MODEL), get_strategy("p3")
    from repro.sim import ClusterSim
    a = ClusterSim(model, strat, cfg, sim=sim)
    b = ClusterSim(model, strat, cfg, sim=sim)
    mon = MultiJobInvariantMonitor(sim)
    mon.attach("a", a)
    mon.attach("b", b)
    a.start_run(2, warmup=1)
    b.start_run(2, warmup=1)
    sim.run()
    mon.assert_all_final()  # the clean run holds every invariant

    stray = next(m for m in mon._refs if mon._owner[id(m)] == "a")
    machine = next(iter(b.transport._deliver))
    with pytest.raises(InvariantViolation, match="crossed a job boundary"):
        b.transport._deliver[machine](stray)
    assert mon.crossings == 1
