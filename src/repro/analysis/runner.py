"""Grid execution for simulation sweeps: serialization, process fan-out,
and cache integration.

Every figure driver in :mod:`repro.analysis` is a loop over independent
``simulate()`` calls — a *grid* of (model, strategy, cluster config)
points whose results are then arranged into a
:class:`~repro.analysis.series.FigureData`.  This module factors that
loop out:

* :class:`SimPoint` describes one ``simulate()`` call as plain data and
  serializes to a canonical JSON document (the unit of caching and of
  inter-process work distribution);
* :class:`PointResult` is the scalar summary a sweep consumes
  (throughput, mean iteration time, event count) — deliberately small
  so it round-trips losslessly through JSON;
* :func:`run_grid` executes a list of points — resolving cache hits,
  fanning misses across a process pool (``jobs``), and returning
  results in grid order.

Determinism: the simulator is single-threaded and seeded, so a point's
result does not depend on which process runs it or in what order the
grid executes.  ``run_grid`` therefore returns *identical* results for
any ``jobs`` value and any cache state, and the figure drivers built on
it produce byte-identical serialized figures either way (tested in
``tests/analysis/test_runner_cache.py``).

``jobs`` is clamped to the CPUs actually available to this process
(``os.sched_getaffinity``): extra workers on a smaller machine would
only add scheduling overhead, and a clamp to 1 skips the pool entirely
— ``--jobs 4`` is always safe to pass, it degrades to the best serial
execution.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..models import get_model
from ..sim import ClusterConfig, simulate
from ..sim.faults import FAULT_TAGS, FaultPlan, fault_tag
from ..strategies import StrategyConfig
from ..strategies.base import PullPolicy
from .cache import SimCache

__all__ = [
    "SimPoint",
    "PointResult",
    "run_grid",
    "execute_point",
    "effective_jobs",
]


# ----------------------------------------------------------------------
# Serialization: strategies, fault plans, cluster configs
# ----------------------------------------------------------------------
_FAULT_TYPES = {tag: cls for cls, tag in FAULT_TAGS.items()}


def _fault_plan_to_doc(plan: FaultPlan) -> dict:
    return {
        "seed": plan.seed,
        "faults": [
            {"type": fault_tag(f), **asdict(f)} for f in plan.faults
        ],
    }


def _fault_plan_from_doc(doc: dict) -> FaultPlan:
    faults = []
    for fdoc in doc["faults"]:
        fdoc = dict(fdoc)
        cls = _FAULT_TYPES[fdoc.pop("type")]
        faults.append(cls(**fdoc))
    return FaultPlan(tuple(faults), seed=doc["seed"])


def _strategy_to_doc(strategy: StrategyConfig) -> dict:
    doc = asdict(strategy)
    doc["pull_policy"] = strategy.pull_policy.value
    return doc


def _strategy_from_doc(doc: dict) -> StrategyConfig:
    doc = dict(doc)
    doc["pull_policy"] = PullPolicy(doc["pull_policy"])
    return StrategyConfig(**doc)


def _config_to_doc(config: ClusterConfig) -> dict:
    doc = asdict(config)
    doc["fault_plan"] = (None if config.fault_plan is None
                         else _fault_plan_to_doc(config.fault_plan))
    if config.straggler_factors is not None:
        doc["straggler_factors"] = list(config.straggler_factors)
    if config.measured_key_loads is not None:
        doc["measured_key_loads"] = [list(kv)
                                     for kv in config.measured_key_loads]
    return doc


def _config_from_doc(doc: dict) -> ClusterConfig:
    doc = dict(doc)
    if doc.get("fault_plan") is not None:
        doc["fault_plan"] = _fault_plan_from_doc(doc["fault_plan"])
    if doc.get("straggler_factors") is not None:
        doc["straggler_factors"] = tuple(doc["straggler_factors"])
    if doc.get("measured_key_loads") is not None:
        doc["measured_key_loads"] = tuple(
            (int(k), int(v)) for k, v in doc["measured_key_loads"])
    return ClusterConfig(**doc)


# ----------------------------------------------------------------------
# Grid points and results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimPoint:
    """One ``simulate()`` call as plain data.

    The document form (:meth:`to_doc`) is the cache key's content and
    the unit shipped to worker processes — everything the simulator
    needs, nothing it does not (figure arrangement stays in the driver).
    """

    model: str
    strategy: StrategyConfig
    config: ClusterConfig
    iterations: int = 5
    warmup: int = 2

    def to_doc(self) -> dict:
        return {
            "model": self.model,
            "strategy": _strategy_to_doc(self.strategy),
            "config": _config_to_doc(self.config),
            "iterations": self.iterations,
            "warmup": self.warmup,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "SimPoint":
        return cls(
            model=doc["model"],
            strategy=_strategy_from_doc(doc["strategy"]),
            config=_config_from_doc(doc["config"]),
            iterations=doc["iterations"],
            warmup=doc["warmup"],
        )


@dataclass(frozen=True)
class PointResult:
    """Scalar summary of one simulated run, JSON-round-trip exact.

    Only what the figure drivers consume: full traces stay in-process
    (they are large and no sweep arranges them across grid points).
    """

    throughput: float
    mean_iteration_time: float
    events_processed: int

    def to_doc(self) -> dict:
        return {
            "throughput": self.throughput,
            "mean_iteration_time": self.mean_iteration_time,
            "events_processed": self.events_processed,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "PointResult":
        return cls(
            throughput=doc["throughput"],
            mean_iteration_time=doc["mean_iteration_time"],
            events_processed=doc["events_processed"],
        )


def execute_point(point: SimPoint) -> PointResult:
    """Run one grid point to completion in this process."""
    result = simulate(
        get_model(point.model), point.strategy, point.config,
        iterations=point.iterations, warmup=point.warmup,
    )
    return PointResult(
        throughput=float(result.throughput),
        mean_iteration_time=float(result.mean_iteration_time),
        events_processed=int(result.events_processed),
    )


def _execute_doc(doc: dict) -> dict:
    """Module-level worker entry point (must be picklable for the pool)."""
    return execute_point(SimPoint.from_doc(doc)).to_doc()


#: Config fields that determine a point's plan artifacts — the grouping
#: key for warm-start families.  Mirrors
#: :func:`repro.sim.cluster.plan_signature`.
_PLAN_FIELDS = (
    "n_workers", "n_servers", "colocate_servers", "placement",
    "placement_split_factor", "placement_max_splits", "agg_group_size",
    "measured_key_loads", "seed",
)


def _family_key(doc: dict) -> str:
    """Canonical grouping key: points with equal keys share plan artifacts."""
    from .cache import canonical_json

    cfg = doc["config"]
    return canonical_json({
        "model": doc["model"],
        "strategy": doc["strategy"],
        "plan": {f: cfg.get(f) for f in _PLAN_FIELDS},
    })


def _execute_family_doc(docs: List[dict]) -> List[dict]:
    """Pool entry point for warm-start families (picklable wrapper)."""
    from .warmstart import execute_family

    return execute_family(docs)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def available_cpus() -> int:
    """CPUs this process may run on (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def effective_jobs(jobs: int, n_tasks: Optional[int] = None) -> int:
    """Clamp a requested worker count to what can actually help.

    Never more than the CPUs available to this process (oversubscribing
    a single core just adds scheduler overhead) and never more than the
    number of tasks.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    eff = min(jobs, available_cpus())
    if n_tasks is not None:
        eff = min(eff, max(1, n_tasks))
    return eff


def run_grid(
    points: Sequence[SimPoint],
    jobs: int = 1,
    cache: Optional[SimCache] = None,
    warm_start: bool = False,
) -> List[PointResult]:
    """Execute every grid point; results in the same order as ``points``.

    Cache hits are resolved first; remaining misses run serially
    (``effective_jobs == 1``) or through a :class:`ProcessPoolExecutor`
    and are written back to the cache.  Results are independent of
    ``jobs`` and of cache state — identical bit for bit.

    ``warm_start=True`` switches misses to the incremental executor
    (:mod:`repro.analysis.warmstart`): points are grouped into
    plan-compatible *families* that share prebuilt plan artifacts, and
    each eligible point extrapolates from a short verified steady-state
    run instead of simulating every iteration.  Extrapolated results
    are ``REL_TOL``-close to a cold run, not bit-identical, so they are
    cached in a separate ``warm/`` namespace under the same code salt;
    exact results (ineligible points, verification fallbacks) keep
    flowing into the main cache.  The main cache is always consulted
    first, so an exact result shadows a warm one.
    """
    docs = [point.to_doc() for point in points]
    results: List[Optional[PointResult]] = [None] * len(points)
    warm_cache: Optional[SimCache] = None
    if cache is not None and warm_start:
        warm_cache = SimCache(root=Path(cache.root) / "warm", salt=cache.salt)
    if cache is not None:
        miss_idx = []
        for i, doc in enumerate(docs):
            hit = cache.get(doc)
            if hit is None and warm_cache is not None:
                hit = warm_cache.get(doc)
            if hit is not None:
                results[i] = PointResult.from_doc(hit)
            else:
                miss_idx.append(i)
    else:
        miss_idx = list(range(len(points)))

    if miss_idx and not warm_start:
        workers = effective_jobs(jobs, n_tasks=len(miss_idx))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                out = list(pool.map(_execute_doc,
                                    [docs[i] for i in miss_idx]))
        else:
            out = [_execute_doc(docs[i]) for i in miss_idx]
        for i, result_doc in zip(miss_idx, out):
            if cache is not None:
                cache.put(docs[i], result_doc)
            results[i] = PointResult.from_doc(result_doc)
    elif miss_idx:
        # Group misses into plan-compatible families, preserving first-
        # appearance order so results stay jobs-independent.
        families: Dict[str, List[int]] = {}
        for i in miss_idx:
            families.setdefault(_family_key(docs[i]), []).append(i)
        payloads = [[docs[i] for i in idxs] for idxs in families.values()]
        workers = effective_jobs(jobs, n_tasks=len(payloads))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outs = list(pool.map(_execute_family_doc, payloads))
        else:
            outs = [_execute_family_doc(payload) for payload in payloads]
        for idxs, family_out in zip(families.values(), outs):
            for i, outcome in zip(idxs, family_out):
                result_doc = outcome["result"]
                if cache is not None:
                    target = cache if outcome["exact"] else warm_cache
                    if target is not None:
                        target.put(docs[i], result_doc)
                results[i] = PointResult.from_doc(result_doc)
    return results  # type: ignore[return-value]

