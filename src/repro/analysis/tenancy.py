"""Multi-tenant sweep: does P3's priority survive inter-job contention?

P3's gains come from *intra-job* priority scheduling on the sender's
NIC.  On a shared cluster the NIC rate itself becomes a moving target —
the fair-sharing policy retunes every job's bandwidth as tenants come
and go — so the open question is whether the priority structure still
buys anything once jobs contend (the ledger's ``ext_tenancy_*`` rows).

The sweep's workload makes the comparison inside one contended cluster:
``n`` tenants each submit one job, alternating ``p3`` and ``baseline``
strategies, all admitted concurrently.  For each (policy, tenant-count)
cell we report the SLO-style p95 iteration time per strategy, sourced
from the same obs histogram the tenancy report uses
(:func:`repro.tenancy.iteration_slo`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..tenancy import JobSpec, TenancyConfig, TenancyResult, run_multi_job
from .series import FigureData

SWEEP_TENANTS = (2, 4, 8)
SWEEP_POLICIES = ("weighted", "equal", "none")


def default_workload(
    n_tenants: int,
    model: str = "resnet50",
    strategy: str = "mixed",
    workers_per_job: int = 2,
    iterations: int = 5,
    warmup: int = 1,
    weights: Optional[Sequence[float]] = None,
    stagger_s: float = 0.0,
    placement: str = "round_robin",
    seed: int = 0,
) -> List[JobSpec]:
    """One job per tenant.

    ``strategy="mixed"`` alternates p3/baseline across tenants so both
    strategies contend for the same fabric — the sweep's comparison;
    ``stagger_s`` spaces arrivals to exercise admission ordering.
    """
    if n_tenants <= 0:
        raise ValueError("n_tenants must be positive")
    if weights is not None and len(weights) != n_tenants:
        raise ValueError(f"need one weight per tenant, got {len(weights)}")
    jobs = []
    for i in range(n_tenants):
        if strategy == "mixed":
            strat = "p3" if i % 2 == 0 else "baseline"
        else:
            strat = strategy
        jobs.append(JobSpec(
            name=f"job{i}",
            tenant=f"tenant{i}",
            model=model,
            strategy=strat,
            n_workers=workers_per_job,
            iterations=iterations,
            warmup=warmup,
            weight=float(weights[i]) if weights is not None else 1.0,
            arrival_s=i * stagger_s,
            placement=placement,
            seed=seed,
        ))
    return jobs


def run_tenant_scenario(
    n_tenants: int,
    policy: str = "weighted",
    model: str = "resnet50",
    strategy: str = "mixed",
    bandwidth_gbps: float = 10.0,
    workers_per_job: int = 2,
    iterations: int = 5,
    warmup: int = 1,
    n_slots: Optional[int] = None,
    weights: Optional[Sequence[float]] = None,
    stagger_s: float = 0.0,
    monitor: bool = False,
    seed: int = 0,
) -> TenancyResult:
    """One multi-tenant run with the default workload; the CLI's core."""
    jobs = default_workload(n_tenants, model=model, strategy=strategy,
                            workers_per_job=workers_per_job,
                            iterations=iterations, warmup=warmup,
                            weights=weights, stagger_s=stagger_s, seed=seed)
    cfg = TenancyConfig(
        n_slots=(n_slots if n_slots is not None
                 else n_tenants * workers_per_job),
        bandwidth_gbps=bandwidth_gbps, policy=policy)
    return run_multi_job(jobs, cfg, monitor=monitor)


def _strategy_p95(result: TenancyResult, strategy: str) -> Optional[float]:
    """Mean p95 iteration time across the jobs running ``strategy``."""
    vals = [jr.slo()["p95"] for jr in result.jobs.values()
            if jr.job.strategy_name == strategy]
    return sum(vals) / len(vals) if vals else None


def tenancy_sweep(
    model_name: str = "resnet50",
    tenants: Sequence[int] = SWEEP_TENANTS,
    policies: Sequence[str] = SWEEP_POLICIES,
    bandwidth_gbps: float = 10.0,
    workers_per_job: int = 2,
    iterations: int = 5,
    warmup: int = 1,
    seed: int = 0,
) -> FigureData:
    """p95 iteration time vs tenant count, per (strategy, policy).

    Tenant ``i`` weighs ``1 + (i // 2) % 4``: each P3/baseline pair
    shares a weight, so ``weighted`` and ``equal`` share the fabric
    differently while neither strategy gets more bandwidth from its
    weight.  One series per ``"<strategy>/<policy>"`` pair.  The figure's
    headline note, ``p3_p95_advantage_<policy>``, is the
    baseline-to-p3 p95 ratio at the largest tenant count — values above
    1 mean the paper's intra-job priority still pays off under that
    policy's inter-job contention.
    """
    fig = FigureData(
        figure_id=f"tenancy_{model_name}",
        title=(f"Multi-tenant SLO: {model_name} @ {bandwidth_gbps:g} Gbps, "
               f"{workers_per_job} workers/job"),
        x_label="tenants",
        y_label="p95 iteration time (s)",
    )
    cells = {
        policy: [run_tenant_scenario(
            int(n), policy=policy, model=model_name,
            bandwidth_gbps=bandwidth_gbps,
            workers_per_job=workers_per_job,
            iterations=iterations, warmup=warmup,
            weights=[1 + (i // 2) % 4 for i in range(int(n))], seed=seed)
            for n in tenants]
        for policy in policies
    }
    for strat in ("p3", "baseline"):
        for policy in policies:
            ys = [_strategy_p95(res, strat) for res in cells[policy]]
            xs = [int(n) for n, y in zip(tenants, ys) if y is not None]
            fig.add(f"{strat}/{policy}",
                    xs, [y for y in ys if y is not None])
    for policy in policies:
        top = cells[policy][-1]
        p3 = _strategy_p95(top, "p3")
        base = _strategy_p95(top, "baseline")
        if p3 and base:
            fig.notes[f"p3_p95_advantage_{policy}"] = round(base / p3, 3)
        waits = [jr.queue_wait_s for jr in top.jobs.values()]
        fig.notes[f"max_queue_wait_s_{policy}"] = round(max(waits), 4)
    return fig
