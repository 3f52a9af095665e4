"""Multi-seed statistics for stochastic simulations.

Sockeye's jitter and the random placement of small KVStore keys make
some simulated throughputs seed-dependent.  These helpers rerun a
configuration across seeds and report mean / std / a normal-theory
confidence interval, so EXPERIMENTS.md can state results as
point ± uncertainty where it matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..strategies import StrategyConfig
from .sweep import Sweep, config_axis


@dataclass(frozen=True)
class SeedStats:
    """Summary of one metric across seeds."""

    values: tuple
    mean: float
    std: float
    ci95_half_width: float

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def lo(self) -> float:
        return self.mean - self.ci95_half_width

    @property
    def hi(self) -> float:
        return self.mean + self.ci95_half_width

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"{self.mean:.2f} ± {self.ci95_half_width:.2f} (n={self.n})"


def summarize(values: Sequence[float]) -> SeedStats:
    """Mean / std / 95% CI half-width (normal approximation)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one value")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    half = 1.96 * std / np.sqrt(arr.size) if arr.size > 1 else 0.0
    return SeedStats(tuple(float(v) for v in arr), float(arr.mean()), std, half)


# The seed is the swept quantity: one grid per call, so ``jobs`` and
# ``cache`` spread and memoize the reruns like any other figure's.
_across_seeds = Sweep(
    "seed_spread", "Seed spread: {model} @ {bandwidth_gbps:g} Gbps", "seed",
    config_axis("seed", int), (0, 1, 2, 3, 4), per_worker=False,
)


def throughput_stats(
    model_name: str,
    strategy: StrategyConfig,
    bandwidth_gbps: float,
    seeds: Sequence[int] = _across_seeds.grid,
    n_workers: int = 4,
    per_worker: bool = True,
    **run,
) -> SeedStats:
    """Per-worker throughput across seeds for one configuration.

    ``**run`` are the sweep's run parameters (``iterations``,
    ``warmup``, ``jobs``, ``cache``).
    """
    fig = _across_seeds(model_name, seeds, strategies=(strategy,),
                        bandwidth_gbps=bandwidth_gbps, n_workers=n_workers,
                        **run)
    return summarize(fig.series[0].y / (n_workers if per_worker else 1))


def speedup_stats(
    model_name: str,
    bandwidth_gbps: float,
    seeds: Sequence[int] = _across_seeds.grid,
    **run,
) -> SeedStats:
    """P3-over-baseline speedup across seeds (paired per seed)."""
    fig = _across_seeds(model_name, seeds, bandwidth_gbps=bandwidth_gbps,
                        **run)
    return summarize(fig.get("p3").y / fig.get("baseline").y)
