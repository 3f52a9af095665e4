"""Cross-substrate tenancy conformance: one scheduler, two executors.

The :class:`~repro.tenancy.scheduler.JobScheduler` is substrate-agnostic
by construction; these tests pin that down end to end:

* a two-tenant schedule run on the **asyncio live cluster** produces,
  per job, final parameters bit-identical to that job's isolated
  in-process reference — contention (shared FairShaper, interleaved
  event loop) may change *when* things happen, never *what* is computed;
* the admission/completion **ledger kinds-order** of the same workload
  shape agrees between :class:`MultiJobSim` and the live driver when
  the order is forced structurally (capacity head-of-line, explicit
  dependency) — wall-clock vs simulated time must not reorder it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.calibration import run_inprocess
from repro.tenancy import (
    JobSpec,
    TenancyConfig,
    TenancyError,
    run_live_tenants,
    run_multi_job,
)
from tests.scenarios import live_cfg

pytestmark = [pytest.mark.tenancy, pytest.mark.slow]


def two_tenant_schedule(arrival_b=0.0, after_b=(), workers=3):
    jobs = [
        JobSpec(name="a", tenant="alpha", strategy="p3",
                n_workers=workers, weight=2.0),
        JobSpec(name="b", tenant="beta", strategy="baseline",
                n_workers=workers, weight=1.0,
                arrival_s=arrival_b, after=after_b),
    ]
    configs = {
        "a": live_cfg(strategy="p3", store_seed=7),
        "b": live_cfg(strategy="baseline", store_seed=11),
    }
    return jobs, configs


def test_live_contended_jobs_match_isolated_references() -> None:
    """Two tenants on one event loop and one shaped fabric: each job's
    final parameters are bit-identical to its solo in-process run."""
    jobs, configs = two_tenant_schedule()
    res = run_live_tenants(jobs, configs, policy="weighted",
                           rate_bytes_per_s=4_000_000.0)
    assert res.job_order("admit") == ("a", "b")  # FIFO tie-break by name
    for name, cfg in configs.items():
        ref = run_inprocess(cfg)
        got = res.jobs[name].result.final_params
        assert set(got) == set(ref)
        for pname in ref:
            np.testing.assert_array_equal(
                got[pname], ref[pname],
                err_msg=f"job {name}: {pname} diverged under contention")
        slo = res.jobs[name].slo()
        assert slo["count"] > 0 and slo["p50"] <= slo["p95"] <= slo["p99"]


@pytest.mark.parametrize(
    "slots,after_b",
    [(3, ()),       # capacity head-of-line: b must wait for a's slots
     (6, ("a",))],  # explicit dependency: b gated on a's completion
    ids=["capacity", "dependency"])
def test_ledger_kinds_order_agrees_with_sim(slots, after_b) -> None:
    jobs, configs = two_tenant_schedule(after_b=after_b)
    live = run_live_tenants(jobs, configs, policy="none", n_slots=slots)

    sim_jobs = [
        JobSpec(name=j.name, tenant=j.tenant, model="toy3",
                strategy=j.strategy, n_workers=j.n_workers,
                weight=j.weight, arrival_s=j.arrival_s, after=j.after,
                iterations=4, warmup=1)
        for j in jobs
    ]
    sim = run_multi_job(sim_jobs, TenancyConfig(
        n_slots=slots, bandwidth_gbps=1.0, policy="none"), monitor=True)

    for kind in ("submit", "admit", "complete"):
        assert live.job_order(kind) == sim.job_order(kind) == ("a", "b")
    # The forced serialization is visible as queue wait on both: b waits
    # out a's whole run, a only sees wall-clock admission jitter.
    assert live.jobs["b"].queue_wait_s >= 0.8 * live.jobs["a"].running_s
    assert sim.jobs["b"].queue_wait_s > 0.0
    assert live.jobs["a"].queue_wait_s < 0.01
    assert sim.jobs["a"].queue_wait_s == 0.0


def test_live_admits_a_mid_run_arrival_when_it_arrives() -> None:
    """Regression: the live loop re-checked admission only when a job
    completed, so ``b``, arriving at 0.1 s into 3 free slots of 6, sat
    queued until ``a`` finished (~1 s).  MultiJobSim admits at arrival;
    so must the live driver."""
    jobs, configs = two_tenant_schedule(arrival_b=0.1)
    configs["a"] = live_cfg(strategy="p3", store_seed=7, fwd_layer_s=0.02,
                            bwd_layer_s=0.04)  # ~1 s of emulated compute
    res = run_live_tenants(jobs, configs, policy="none", n_slots=6)
    a, b = res.jobs["a"], res.jobs["b"]
    assert b.admitted_s >= 0.1
    assert b.admitted_s < a.completed_s, (b.admitted_s, a.completed_s)


def test_live_schedule_survives_unshaped_policy_none() -> None:
    """policy="none" with no shared rate: pure admission scheduling,
    results still exact."""
    jobs, configs = two_tenant_schedule()
    res = run_live_tenants(jobs, configs, policy="none")
    for name, cfg in configs.items():
        ref = run_inprocess(cfg)
        got = res.jobs[name].result.final_params
        for pname in ref:
            np.testing.assert_array_equal(got[pname], ref[pname])


def test_no_job_result_is_formatted_on_the_way_out(monkeypatch) -> None:
    """The tenancy entry point shares ``run_live_aio``'s way out of the
    loop: the ``TenancyResult`` must not ride ``asyncio.run``'s main
    task, whose tear-down would ``repr()`` every job's whole result."""
    from repro.live import LiveRunResult

    formatted = []
    monkeypatch.setattr(LiveRunResult, "__repr__",
                        lambda self: formatted.append(1) or "<result>")
    jobs, configs = two_tenant_schedule()
    res = run_live_tenants(jobs, configs, policy="none")
    assert set(res.jobs) == {"a", "b"}
    assert formatted == []


def test_an_empty_workload_is_a_tenancy_error() -> None:
    """Regression: no jobs used to die sizing the cluster, in ``max()``
    of an empty sequence, with a bare ``ValueError``."""
    with pytest.raises(TenancyError, match="no jobs"):
        run_live_tenants((), {})
