"""Multi-seed statistics for stochastic simulations.

Sockeye's jitter and the random placement of small KVStore keys make
some simulated throughputs seed-dependent.  ``_across_seeds`` reruns a
configuration across seeds and :func:`summarize` reports mean / std / a
normal-theory confidence interval, so a ledger row can bound a result's
uncertainty where it matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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

