"""Robustness under cluster degradation.

Section 5.3 argues P3 matters most when effective bandwidth is scarce
and contended; the fault subsystem (:mod:`repro.sim.faults`) lets us
push past steady background tenants into the degradation real clusters
exhibit — stragglers, failing NICs, parameter-server stalls — and
measure how gracefully each synchronization strategy degrades.

The sweep starts from an *abundant* fabric (16 Gbps by default, where
every strategy is compute-bound and indistinguishable) and injects
faults whose intensity scales with a severity knob.  Rising severity
drags the cluster into the bandwidth-scarce regime the paper cares
about, and the claim this module exists to demonstrate emerges:
priority scheduling degrades no worse than the baseline — its advantage
*appears* as the fabric decays.

Two deliberate design points, both findings in their own right:

* The link fault is a **sustained** rate reduction, not a fast flap.
  P3's just-in-time schedule has no slack, so a transient flap lands
  directly on its critical path while the baseline hides flaps inside
  stalls it was suffering anyway.  Sustained scarcity is both the
  common failure mode (autonegotiation fallback, congested uplink) and
  the regime the paper analyses.
* Straggler and stall windows are short relative to an iteration and
  repeat densely, so every strategy — whatever its iteration length —
  sees the same *fraction* of degraded time rather than winning or
  losing by the phase at which windows land.

Everything is deterministic given the seeds: same arguments, same
numbers, bit for bit.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..models import get_model
from ..sim import (
    ChaosFault,
    ClusterConfig,
    FaultPlan,
    LinkFault,
    ServerStallFault,
    StragglerFault,
)
from ..strategies import get_strategy
from .runner import SimPoint, run_grid
from .series import FigureData

DEFAULT_STRATEGIES = ("baseline", "slicing", "p3")
DEFAULT_SEVERITIES = (0.0, 0.25, 0.5, 0.75)
DEFAULT_BANDWIDTH_GBPS = 16.0


def fault_plan_for(
    severity: float,
    iteration_time: float,
    n_workers: int = 4,
    kinds: Sequence[str] = ("straggler", "link", "stall"),
    seed: int = 0,
) -> FaultPlan:
    """A composable fault plan whose intensity scales with ``severity``.

    ``severity`` in [0, 1] controls how hard each fault bites:

    * **straggler** — worker 1 slows by ``1 + 2 * severity`` for a
      third of the time (dense windows of 0.3 iterations every 0.9);
    * **link** — machine 0's NIC drops to ``1 - severity`` of nominal
      rate (floored at 5%) for the rest of the run, a sustained
      degradation that pulls the cluster into bandwidth scarcity;
    * **stall** — PS shard 0 pauses for ``0.4 * severity`` iterations
      out of every 1.3;
    * **chaos** — every link loses ``0.2 * severity`` of its frames and
      duplicates ``0.1 * severity`` more, modelled in the simulator as
      the goodput left after retransmission (the live stack injects the
      same spec literally, see :mod:`repro.live.chaos`).

    Schedule times are expressed in units of ``iteration_time`` (use
    the fault-free baseline's) so one dimensionless recipe fits any
    model.  Severity 0 returns an empty plan.
    """
    known = {"straggler", "link", "stall", "chaos"}
    unknown = set(kinds) - known
    if unknown:
        raise ValueError(f"unknown fault kind(s): {sorted(unknown)}; "
                         f"choose from {', '.join(sorted(known))}")
    if not (0.0 <= severity <= 1.0):
        raise ValueError("severity must be in [0, 1]")
    if iteration_time <= 0:
        raise ValueError("iteration_time must be positive")
    if severity == 0.0:
        return FaultPlan((), seed=seed)
    faults = []
    if "straggler" in kinds and n_workers > 1:
        faults.append(StragglerFault(
            worker=1, factor=1.0 + 2.0 * severity,
            start=0.4, duration=0.3, period=0.9))
    if "link" in kinds:
        faults.append(LinkFault(
            machine=0, rate_factor=max(0.05, 1.0 - severity), start=0.25))
    if "stall" in kinds:
        faults.append(ServerStallFault(
            server=0, start=0.7, duration=max(1e-3, 0.4 * severity),
            period=1.3))
    if "chaos" in kinds:
        faults.append(ChaosFault(
            machine=-1, drop_rate=0.2 * severity,
            dup_rate=0.1 * severity, start=0.25))
    plan = FaultPlan(tuple(faults), seed=seed)
    return plan.scaled(iteration_time)


def robustness_sweep(
    model_name: str = "resnet50",
    bandwidth_gbps: float = DEFAULT_BANDWIDTH_GBPS,
    severities: Sequence[float] = DEFAULT_SEVERITIES,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    kinds: Sequence[str] = ("straggler", "link", "stall"),
    n_workers: int = 4,
    iterations: int = 5,
    warmup: int = 2,
    seed: int = 0,
    **grid,
) -> FigureData:
    """Throughput retention per strategy across a fault-severity grid.

    Every strategy at a given severity faces the *same* fault plan
    (identical specs, identical seed); the y values are throughput as a
    fraction of that strategy's own fault-free throughput, so 1.0 means
    unhurt and lower is worse.  ``notes`` records each strategy's
    retention at the harshest severity, the P3-vs-baseline retention
    margin, and the *absolute* P3-over-baseline throughput ratio under
    the harshest plan — the numbers the claims ledger's ``ext_faults_*``
    rows read.

    Execution is two-phase because the grid is data-dependent: the
    clean reference runs must finish first (the first strategy's
    iteration time scales every fault plan), then the faulted
    severity × strategy grid (severity 0 is the clean runs) fans out through
    :func:`repro.analysis.runner.run_grid`, which ``**grid`` (``jobs``,
    ``cache``) goes to, with results identical to a serial run.
    """
    get_model(model_name)  # fail fast on unknown models

    def point(strategy_name: str, plan: FaultPlan) -> SimPoint:
        cfg = ClusterConfig(n_workers=n_workers, bandwidth_gbps=bandwidth_gbps,
                            fault_plan=plan if plan else None, seed=seed)
        return SimPoint(model_name, get_strategy(strategy_name), cfg,
                        iterations, warmup)

    # Fault-free reference runs; the first strategy's iteration time is
    # the timescale for the dimensionless plan, shared by every
    # strategy so all see the same absolute fault schedule.
    clean_results = run_grid([point(name, FaultPlan()) for name in strategies],
                             **grid)
    clean: Dict[str, float] = {
        name: r.throughput for name, r in zip(strategies, clean_results)}
    iter_t = clean_results[0].mean_iteration_time
    fig = FigureData(
        figure_id="robustness",
        title=(f"Fault robustness: {model_name} @ {bandwidth_gbps:g} Gbps, "
               f"{n_workers} workers ({'+'.join(kinds)})"),
        x_label="fault severity",
        y_label="throughput retention (vs own fault-free)",
    )
    absolute: Dict[str, list] = {name: [] for name in strategies}
    retention: Dict[str, list] = {name: [] for name in strategies}
    plans = [fault_plan_for(severity, iter_t, n_workers=n_workers,
                            kinds=kinds, seed=seed)
             for severity in severities]
    # An empty plan (severity 0) makes the very points the clean runs
    # simulated: read those instead of simulating them again.
    faulted = iter(run_grid([point(name, plan) for plan in plans if plan
                             for name in strategies], **grid))
    for plan in plans:
        for name, clean_result in zip(strategies, clean_results):
            result = next(faulted) if plan else clean_result
            absolute[name].append(result.throughput)
            retention[name].append(result.throughput / clean[name])
    for name in strategies:
        fig.add(name, list(severities), retention[name])
        fig.notes[f"{name}_retention_at_{severities[-1]:g}"] = round(
            retention[name][-1], 4)
    if "p3" in strategies and "baseline" in strategies:
        margin = retention["p3"][-1] - retention["baseline"][-1]
        fig.notes["p3_minus_baseline_retention"] = round(margin, 4)
        fig.notes["p3_over_baseline_under_faults"] = round(
            absolute["p3"][-1] / absolute["baseline"][-1], 4)
    fig.notes["iteration_time_unit_s"] = round(iter_t, 6)
    return fig

