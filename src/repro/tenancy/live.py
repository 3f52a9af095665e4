"""Multi-tenant scheduling on the asyncio live cluster.

Runs the same :class:`~repro.tenancy.scheduler.JobScheduler` as the
simulator, but against real jobs: each admitted job is one
:func:`repro.live.aio.driver._run_cluster` coroutine (its own servers,
workers, sockets and store) launched as a task on the shared event
loop.  Cross-job fairness is enforced where it physically lives — at
the senders: every node of a job draws from its tenant's
:class:`~repro.tenancy.shaper.TenantShare` of one cluster-wide
:class:`~repro.tenancy.shaper.FairShaper`, replacing the per-node
private ``TokenBucket``.  CONTROL-priority traffic (acks, heartbeats)
bypasses the shaper entirely, so liveness probes never starve behind a
backlogged tenant's gradients.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Mapping, Optional, Sequence

from ..live.aio.driver import _run_cluster, run_leaving_no_task
from ..live.config import LiveClusterConfig
from .scheduler import ClusterLease, JobScheduler
from .shaper import FairShaper, TenantShare
from .spec import (
    TENANCY_POLICIES,
    JobResult,
    JobSpec,
    TenancyError,
    TenancyResult,
    tenant_weights,
)


def run_live_tenants(jobs: Sequence[JobSpec],
                     configs: Mapping[str, LiveClusterConfig],
                     policy: str = "weighted",
                     n_slots: Optional[int] = None,
                     rate_bytes_per_s: Optional[float] = None,
                     burst_bytes: Optional[int] = None) -> TenancyResult:
    """Run a multi-tenant workload on the asyncio live substrate.

    ``configs`` maps each job name to its :class:`LiveClusterConfig`
    (the live workload is the toy-MLP harness, so the job's model
    geometry lives there); ``rate_bytes_per_s`` is the *shared* fabric
    rate split across tenants — when None, jobs run unshaped and
    ``policy`` degrades to admission-only scheduling.
    """
    if policy not in TENANCY_POLICIES:
        raise TenancyError(f"unknown policy {policy!r}; "
                           f"choose from {TENANCY_POLICIES}")
    jobs = tuple(jobs)
    if not jobs:
        raise TenancyError("no jobs to run")
    for job in jobs:
        if job.name not in configs:
            raise TenancyError(f"no LiveClusterConfig for job {job.name!r}")
        if configs[job.name].n_workers != job.n_workers:
            raise TenancyError(
                f"job {job.name!r}: spec has {job.n_workers} workers but "
                f"its config has {configs[job.name].n_workers}")
    if n_slots is None:
        n_slots = sum(j.n_workers for j in jobs)
    return run_leaving_no_task(_run_tenants(
        jobs, configs, policy, n_slots, rate_bytes_per_s, burst_bytes))


async def _run_tenants(jobs: Sequence[JobSpec],
                       configs: Mapping[str, LiveClusterConfig],
                       policy: str, n_slots: int,
                       rate_bytes_per_s: Optional[float],
                       burst_bytes: Optional[int]) -> TenancyResult:
    scheduler = JobScheduler(jobs, ClusterLease(n_slots))
    shares: Dict[str, TenantShare] = {}
    if policy != "none" and rate_bytes_per_s is not None:
        shaper = FairShaper(rate_bytes_per_s, burst_bytes)
        if policy == "weighted":
            weights = tenant_weights(jobs)
        else:  # equal: ignore spec weights
            weights = {j.tenant: 1.0 for j in jobs}
        for tenant in sorted(weights):
            shares[tenant] = shaper.add_tenant(tenant, weights[tenant])

    t0 = time.monotonic()
    running: Dict[str, asyncio.Task] = {}
    admitted_at: Dict[str, float] = {}
    slots_of: Dict[str, tuple] = {}
    results: Dict[str, JobResult] = {}
    by_name = {j.name: j for j in jobs}
    try:
        while not scheduler.done:
            now = time.monotonic() - t0
            for job in scheduler.next_admissions(now):
                slots_of[job.name] = scheduler.admit(job, now)
                admitted_at[job.name] = now
                cfg = configs[job.name]
                running[job.name] = asyncio.get_running_loop().create_task(
                    _run_cluster(cfg, shaper=shares.get(job.tenant)),
                    name=f"tenancy:{job.name}")
            # Admission is re-checked when a job completes and when the
            # next one arrives, as in the simulator's MultiJobSim.
            nxt = scheduler.next_arrival(now)
            until_next = (None if nxt is None
                          else max(0.0, nxt - (time.monotonic() - t0)))
            if running:
                done, _ = await asyncio.wait(
                    running.values(), timeout=until_next,
                    return_when=asyncio.FIRST_COMPLETED)
                finished = [n for n, t in running.items() if t in done]
                for name in finished:
                    task = running.pop(name)
                    now = time.monotonic() - t0
                    scheduler.complete(name, now)
                    live_result = task.result()  # re-raises job failures
                    results[name] = JobResult(
                        job=by_name[name],
                        admitted_s=admitted_at[name], completed_s=now,
                        slots=slots_of[name], result=live_result)
            elif nxt is None:
                raise TenancyError(
                    f"live scheduler stuck: nothing running, nothing "
                    f"arriving, queue={[j.name for j in jobs if j.name not in results]}")
            else:
                await asyncio.sleep(until_next)
    except BaseException:
        for task in running.values():
            task.cancel()
        if running:
            await asyncio.gather(*running.values(), return_exceptions=True)
        raise
    return TenancyResult(
        policy=policy, n_slots=n_slots, bandwidth_gbps=None,
        jobs=results, log=tuple(scheduler.log),
        makespan_s=time.monotonic() - t0)
