"""Incremental sweep execution: verified steady-state extrapolation.

Synchronous data-parallel training settles into a *periodic* steady
state after a few iterations: every worker repeats the same
forward/backward/sync cycle with bit-for-bit identical structure (same
event counts, same queue depths) and near-identical durations.  A sweep
point asking for ``k`` iterations therefore simulates ``k - warm_k``
copies of a cycle it has already seen.

This module replaces those copies with extrapolation:

1. run a short **warm** simulation of ``warm_k`` iterations with a
   cycle hook recording, at every worker-0 iteration boundary, the
   clock, the events-processed counter, and the pending-event count;
2. **verify** the steady state actually reached periodicity at some
   period ``p`` (:data:`PERIODS`): over the last ``VERIFY_CYCLES``
   occurrences of each phase, per-iteration event counts and pending
   depths must repeat *exactly* and every worker's iteration durations
   must repeat to ``REL_TOL`` relative.  Some protocols settle into a
   limit cycle rather than a fixed point — P3 on VGG alternates
   between two interleavings — which is why ``p`` is searched, not
   assumed to be 1;
3. **extrapolate**: the remaining ``k - warm_k`` iterations repeat the
   last observed period's durations phase-aligned, and the event total
   grows by the observed per-phase event counts.  Per-worker
   throughputs are recomputed with the same ``numpy`` mean the cluster
   uses.

A point that fails verification at the first warm length retries once
with a longer warm run (:data:`WARM_LADDER`) — damped transients can
take tens of iterations to settle — and then falls back to a full
**cold** run.  Warm start never guesses.

Exactness contract: iteration durations at large clock values drift in
their last ULPs (the engine adds event times left to right, and the
clock magnitude grows), so extrapolated results are *approximately*
equal to a cold run — within ``REL_TOL`` relative, which is orders of
magnitude below any figure's resolution — but not bit-identical.
:func:`repro.analysis.runner.run_grid` therefore stores them in a
separate "warm" cache namespace, never mixing them with exact results.
Cold runs (including fallbacks) remain bit-identical to
:func:`~repro.analysis.runner.execute_point` even when they reuse a
family's prebuilt :class:`~repro.sim.cluster.PlanArtifacts`, because
plan construction is a deterministic function of the plan signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..models import get_model
from ..models.base import ModelSpec
from ..sim import ClusterSim, simulate
from ..sim.cluster import PlanArtifacts, build_plan
from .runner import PointResult, SimPoint

__all__ = [
    "WARM_LADDER",
    "PERIODS",
    "VERIFY_CYCLES",
    "REL_TOL",
    "WarmOutcome",
    "warm_iterations",
    "eligible",
    "execute_point_warm",
    "execute_family",
]

#: Steady-state iterations simulated beyond the warmup window, per
#: attempt.  The first rung catches fixed-point steady states cheaply;
#: the second gives limit cycles and slow transients room to settle.
WARM_LADDER = (5, 24)

#: Candidate steady-state periods, searched smallest first.
PERIODS = (1, 2, 4)

#: Occurrences of each phase whose event counts / pending depths must
#: repeat exactly (and whose durations must repeat to ``REL_TOL``)
#: before extrapolating.
VERIFY_CYCLES = 3

#: Relative tolerance for duration periodicity — float ULP drift at
#: growing clock magnitudes, nothing more.
REL_TOL = 1e-9


def warm_iterations(warmup: int) -> int:
    """Iterations the cheapest warm attempt simulates."""
    return warmup + WARM_LADDER[0]


def eligible(model: ModelSpec, point: SimPoint) -> bool:
    """Can this point even *attempt* a warm start?

    Static screening only — sources of aperiodicity knowable without
    running (jitter, faults, background tenants), plus enough requested
    iterations that extrapolation saves anything.  Dynamic aperiodicity
    (async drift etc.) is caught by the post-run verification instead.
    """
    cfg = point.config
    if point.iterations < warm_iterations(point.warmup) + 2:
        return False
    if cfg.fault_plan is not None and bool(cfg.fault_plan):
        return False
    if cfg.background_load > 0:
        return False
    if model.jitter_sigma > 0:
        return False
    return True


@dataclass(frozen=True)
class WarmOutcome:
    """Result of one warm-start-aware execution.

    ``exact`` distinguishes cache namespaces: ``True`` means the result
    is bit-identical to a cold :func:`execute_point` run; ``False``
    means it was extrapolated (``REL_TOL``-close).  ``mode`` records
    the path taken: ``"warm-p<period>"``, ``"cold"`` (ineligible), or
    ``"cold-fallback"`` (no period verified at any warm length).
    """

    result: PointResult
    exact: bool
    mode: str


def _point_result(run) -> PointResult:
    return PointResult(
        throughput=float(run.throughput),
        mean_iteration_time=float(run.mean_iteration_time),
        events_processed=int(run.events_processed),
    )


def _seq_periodic_exact(values: Sequence, period: int, span: int) -> bool:
    """Are the last ``span + period`` values exactly ``period``-periodic?"""
    if len(values) < span + period:
        return False
    for j in range(1, span + 1):
        if values[-j] != values[-j - period]:
            return False
    return True


def _seq_periodic_close(values: Sequence[float], period: int,
                        span: int) -> bool:
    """Same, to ``REL_TOL`` relative (float durations)."""
    if len(values) < span + period:
        return False
    for j in range(1, span + 1):
        a = values[-j]
        b = values[-j - period]
        if abs(a - b) > REL_TOL * max(abs(a), abs(b)):
            return False
    return True


def _detect_period(marks: Sequence[Tuple[int, float, int, int]],
                   durations: Sequence[Sequence[float]],
                   warm_k: int, warmup: int) -> Optional[int]:
    """Smallest verified steady-state period, or ``None``.

    ``marks`` holds one entry per worker-0 iteration boundary
    (0..warm_k inclusive — the final boundary fires as the worker
    retires); ``durations`` holds every worker's per-iteration
    durations.  A period ``p`` verifies when the last ``VERIFY_CYCLES``
    occurrences of each phase repeat — event counts and pending depths
    exactly, durations to ``REL_TOL`` — and the whole verification
    window lies past warmup.
    """
    if len(marks) != warm_k + 1:
        return None
    ev_diffs = [b[2] - a[2] for a, b in zip(marks, marks[1:])]
    pendings = [m[3] for m in marks]
    for p in PERIODS:
        span = VERIFY_CYCLES * p
        if warm_k - warmup < span + p:
            continue
        if not _seq_periodic_exact(ev_diffs, p, span):
            continue
        if not _seq_periodic_exact(pendings, p, span):
            continue
        if all(_seq_periodic_close(d, p, span) for d in durations):
            return p
    return None


def execute_point_warm(point: SimPoint, model: Optional[ModelSpec] = None,
                       artifacts: Optional[PlanArtifacts] = None) -> WarmOutcome:
    """Execute one grid point, extrapolating from steady state when safe."""
    if model is None:
        model = get_model(point.model)
    k = point.iterations
    warmup = point.warmup
    if not eligible(model, point):
        run = simulate(model, point.strategy, point.config,
                       iterations=k, warmup=warmup, artifacts=artifacts)
        return WarmOutcome(_point_result(run), exact=True, mode="cold")

    for extra in WARM_LADDER:
        warm_k = warmup + extra
        if warm_k + 2 > k:
            break
        marks: List[Tuple[int, float, int, int]] = []
        sim_ref: List = []

        def hook(wid: int, iteration: int, now: float,
                 _marks=marks, _ref=sim_ref) -> None:
            if wid == 0:
                eng = _ref[0]
                _marks.append((iteration, now, eng.events_processed,
                               eng.pending))

        cluster = ClusterSim(model, point.strategy, point.config,
                             artifacts=artifacts, cycle_hook=hook)
        sim_ref.append(cluster.sim)
        warm = cluster.run(iterations=warm_k, warmup=warmup)

        trace = cluster.iterations
        durations = [trace.iteration_times(worker=w, skip=0).tolist()
                     for w in range(point.config.n_workers)]
        period = _detect_period(marks, durations, warm_k, warmup)
        if period is None:
            continue

        # Extrapolate.  A cold run's records 0..warm_k-1 are
        # bit-identical to the warm run's (the timeline up to the last
        # recorded boundary does not depend on the iteration target);
        # each further record repeats the steady-state cycle
        # phase-aligned.  Throughputs are recomputed with the exact
        # numpy expression ClusterSim.run uses, so the only deviation
        # from a cold run is the steady-state approximation itself.
        n_extra = k - warm_k
        throughput = 0.0
        mean_iteration_time = 0.0
        for w, durs in enumerate(durations):
            cycle = durs[-period:]
            full = durs + [cycle[i % period] for i in range(n_extra)]
            mean_w = float(np.array(full[warmup:]).mean())
            throughput += model.batch_size / mean_w
            if w == 0:
                mean_iteration_time = mean_w
        ev_diffs = [b[2] - a[2] for a, b in zip(marks, marks[1:])]
        ev_cycle = ev_diffs[-period:]
        events = warm.events_processed + sum(
            ev_cycle[i % period] for i in range(n_extra))
        return WarmOutcome(
            PointResult(
                throughput=float(throughput),
                mean_iteration_time=mean_iteration_time,
                events_processed=int(events),
            ),
            exact=False, mode=f"warm-p{period}",
        )

    run = simulate(model, point.strategy, point.config,
                   iterations=k, warmup=warmup, artifacts=artifacts)
    return WarmOutcome(_point_result(run), exact=True, mode="cold-fallback")


def execute_family(docs: Sequence[dict]) -> List[dict]:
    """Pool entry point: execute a plan-compatible family of points.

    All points share a plan signature (same model, strategy, worker and
    server counts, placement knobs, seed), so the plan artifacts are
    built once and reused — by warm runs and cold fallbacks alike.
    Returns one ``{"result", "exact", "mode"}`` document per input, in
    order.
    """
    points = [SimPoint.from_doc(doc) for doc in docs]
    first = points[0]
    model = get_model(first.model)
    artifacts = build_plan(model, first.strategy, first.config)
    out = []
    for point in points:
        outcome = execute_point_warm(point, model=model, artifacts=artifacts)
        out.append({
            "result": outcome.result.to_doc(),
            "exact": outcome.exact,
            "mode": outcome.mode,
        })
    return out
