"""Multi-job composition on the simulation substrate.

:class:`MultiJobSim` runs N independent :class:`ClusterSim` key
universes on **one** shared event engine.  Each admitted job keeps its
own transport, channels, workers and shards (machine ids are job-local,
so nothing collides); what the jobs share is the clock and — under a
fair-sharing policy — the fabric bandwidth.

Contention is modeled fluidly: whenever the set of running jobs changes,
every running job's per-NIC rate is retuned to its tenant's fair share
(``weighted`` splits by tenant weight, ``equal`` evenly, ``none`` never
retunes) via ``Channel.set_rate`` — the same mechanism link-degradation
faults use, so in-flight transfers re-pace correctly.  A tenant's share
is split evenly among its own running jobs; idle tenants donate their
share to the active ones (work conservation), matching the live
substrate's :class:`~repro.tenancy.shaper.FairShaper` semantics at the
fluid limit.

Zero-overhead-when-alone: a single-job workload is bit-identical to
:func:`repro.sim.simulate` with the same config
(``tests/tenancy/test_isolation.py``) because there is nothing to do
differently — every ``ClusterSim`` wires the same channels, a lone job's
share is always 1, and ``_reshare`` skips a job whose rate did not
change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.cluster import ClusterConfig, ClusterSim
from ..sim.engine import SimulationError, Simulator
from ..sim.network import gbps_to_bytes_per_s
from .scheduler import ClusterLease, JobScheduler
from .spec import (
    TENANCY_POLICIES,
    JobResult,
    JobSpec,
    TenancyError,
    TenancyResult,
    tenant_weights,
)


@dataclass(frozen=True)
class TenancyConfig:
    """Shared-cluster parameters for a simulated multi-tenant run."""

    n_slots: int = 8
    bandwidth_gbps: float = 10.0
    policy: str = "weighted"
    compute_scale: float = 1.0
    latency_s: float = 50e-6
    observe: bool = False  # attach a per-job ObsSession

    def __post_init__(self) -> None:
        if self.n_slots <= 0:
            raise TenancyError("n_slots must be positive")
        if self.policy not in TENANCY_POLICIES:
            raise TenancyError(
                f"unknown policy {self.policy!r}; "
                f"choose from {TENANCY_POLICIES}")
        if self.bandwidth_gbps <= 0:
            raise TenancyError("bandwidth_gbps must be positive")


class _Running:
    __slots__ = ("job", "cluster", "slots", "admitted_s", "rate", "obs")

    def __init__(self, job: JobSpec, cluster: ClusterSim,
                 slots: Tuple[int, ...], admitted_s: float,
                 rate: float, obs) -> None:
        self.job = job
        self.cluster = cluster
        self.slots = slots
        self.admitted_s = admitted_s
        self.rate = rate
        self.obs = obs


class MultiJobSim:
    """N training jobs, one event engine, shared fabric bandwidth."""

    def __init__(self, jobs: Sequence[JobSpec],
                 config: Optional[TenancyConfig] = None,
                 monitor: bool = False) -> None:
        self.config = config or TenancyConfig()
        self.sim = Simulator()
        self.scheduler = JobScheduler(jobs, ClusterLease(self.config.n_slots))
        self.jobs = self.scheduler.jobs
        self.weights = tenant_weights(self.jobs)
        self._running: Dict[str, _Running] = {}
        self._results: Dict[str, JobResult] = {}
        # Collected jobs, released once the shared engine drains: a job
        # is collected while its last pushes may still be in flight.
        self._finished: List[ClusterSim] = []
        self.monitor = None
        if monitor:
            from ..sim.invariants import MultiJobInvariantMonitor
            self.monitor = MultiJobInvariantMonitor(self.sim)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> TenancyResult:
        """Admit, simulate, and collect the whole workload."""
        if self._results or self._running:
            raise TenancyError("MultiJobSim.run is single-shot")
        for t in sorted({j.arrival_s for j in self.jobs if j.arrival_s > 0}):
            self.sim.schedule_at(t, self._admit_ready)
        self._admit_ready()
        self.sim.run(max_events=max_events)
        if not self.sim.pending:
            for cluster in self._finished:
                # The completion hook _launch installed holds the job.
                del cluster.on_worker_done
                cluster.release()
            self._finished.clear()
        if not self.scheduler.done:
            stuck = [j.name for j in self.jobs if j.name not in self._results]
            raise SimulationError(
                f"multi-job run stalled: jobs {stuck} incomplete")
        return TenancyResult(
            policy=self.config.policy,
            n_slots=self.config.n_slots,
            bandwidth_gbps=self.config.bandwidth_gbps,
            jobs=self._results,
            log=tuple(self.scheduler.log),
            makespan_s=self.sim.now,
        )

    # ------------------------------------------------------------------
    # Admission / completion (run inside the event loop)
    # ------------------------------------------------------------------
    def _admit_ready(self) -> None:
        now = self.sim.now
        admitted = False
        for job in self.scheduler.next_admissions(now):
            slots = self.scheduler.admit(job, now)
            self._launch(job, slots, now)
            admitted = True
        if admitted:
            self._reshare()

    def _launch(self, job: JobSpec, slots: Tuple[int, ...],
                now: float) -> None:
        obs = None
        if self.config.observe:
            from ..obs.registry import sim_session
            obs = sim_session()
        cfg = ClusterConfig(
            n_workers=job.n_workers,
            bandwidth_gbps=self.config.bandwidth_gbps,
            latency_s=self.config.latency_s,
            compute_scale=self.config.compute_scale,
            placement=job.placement,
            agg_group_size=min(4, job.n_workers),
            seed=job.seed,
        )
        cluster = ClusterSim(job.resolve_model(), job.resolve_strategy(),
                             cfg, obs=obs, sim=self.sim)
        if self.monitor is not None:
            self.monitor.attach(job.name, cluster)
        # Completion detection: piggyback on the worker-done callback.
        orig = cluster.on_worker_done

        def on_done(worker_id: int, _c=cluster, _j=job, _orig=orig) -> None:
            _orig(worker_id)
            if _c.all_workers_done:
                self._on_job_done(_j)

        cluster.on_worker_done = on_done  # type: ignore[method-assign]
        cluster.start_run(job.iterations, job.warmup)
        self._running[job.name] = _Running(
            job, cluster, slots, now,
            gbps_to_bytes_per_s(self.config.bandwidth_gbps), obs)

    def _on_job_done(self, job: JobSpec) -> None:
        now = self.sim.now
        self.scheduler.complete(job.name, now)
        rj = self._running.pop(job.name)
        self._results[job.name] = JobResult(
            job=job, admitted_s=rj.admitted_s, completed_s=now,
            slots=rj.slots, result=rj.cluster.collect())
        self._finished.append(rj.cluster)
        # A completion both frees capacity (new admissions) and changes
        # the contender set (reshare for the survivors).
        self._admit_ready()
        self._reshare()

    # ------------------------------------------------------------------
    # Fair sharing
    # ------------------------------------------------------------------
    def shares(self) -> Dict[str, float]:
        """Per-running-job bandwidth fraction under the current policy."""
        if not self._running:
            return {}
        by_tenant: Dict[str, List[str]] = {}
        for name, rj in self._running.items():
            by_tenant.setdefault(rj.job.tenant, []).append(name)
        out: Dict[str, float] = {}
        if self.config.policy == "none":
            return {name: 1.0 for name in self._running}
        if self.config.policy == "weighted":
            wsum = sum(self.weights[t] for t in by_tenant)
            tenant_share = {t: self.weights[t] / wsum for t in by_tenant}
        else:  # equal
            tenant_share = {t: 1.0 / len(by_tenant) for t in by_tenant}
        for tenant, names in by_tenant.items():
            per_job = tenant_share[tenant] / len(names)
            for name in names:
                out[name] = per_job
        return out

    def _reshare(self) -> None:
        full = gbps_to_bytes_per_s(self.config.bandwidth_gbps)
        for name, frac in self.shares().items():
            rj = self._running[name]
            rate = full * frac
            if rate == rj.rate:
                continue
            rj.rate = rate
            for ch in rj.cluster.tx_channels + rj.cluster.rx_channels:
                ch.set_rate(rate)


def run_multi_job(jobs: Sequence[JobSpec],
                  config: Optional[TenancyConfig] = None,
                  monitor: bool = False) -> TenancyResult:
    """One-call convenience: build, run, (optionally) assert invariants."""
    mjs = MultiJobSim(jobs, config, monitor=monitor)
    result = mjs.run()
    if mjs.monitor is not None:
        mjs.monitor.assert_all_final()
        mjs.monitor.release()
    return result
