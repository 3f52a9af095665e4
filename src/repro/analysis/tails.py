"""Iteration-time tail analysis.

Mean throughput hides what jitter does to synchronous training: the
barrier converts per-worker variance into everyone's tail.  These
helpers report iteration-time percentiles per strategy — relevant to
Sockeye (the "difference in iteration time in worker
machines" of Section 5.5) and to the straggler extension.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..models import get_model
from ..sim import ClusterConfig, simulate
from ..strategies import StrategyConfig, asgd, baseline, p3
from .series import FigureData

PERCENTILES = (50.0, 90.0, 99.0)


def iteration_time_percentiles(
    model_name: str,
    strategy: StrategyConfig,
    bandwidth_gbps: float,
    n_workers: int = 4,
    iterations: int = 30,
    warmup: int = 3,
    seed: int = 0,
    percentiles: Sequence[float] = PERCENTILES,
) -> Dict[float, float]:
    """Percentiles of per-iteration time pooled across all workers."""
    model = get_model(model_name)
    cfg = ClusterConfig(n_workers=n_workers, bandwidth_gbps=bandwidth_gbps,
                        seed=seed)
    result = simulate(model, strategy, cfg, iterations=iterations, warmup=warmup)
    pooled = np.concatenate([
        result.iterations.iteration_times(worker=w, skip=warmup)
        for w in range(n_workers)
    ])
    return {p: float(np.percentile(pooled, p)) for p in percentiles}


def tail_comparison(
    model_name: str = "sockeye",
    bandwidth_gbps: float = 4.0,
    n_workers: int = 4,
    iterations: int = 30,
    seed: int = 0,
) -> FigureData:
    """p50/p90/p99 iteration times for baseline, P3 and ASGD.

    Expected shape: P3 shifts the whole distribution left (less queueing
    on the critical path); ASGD cuts the tail most because workers never
    wait for the barrier, at the accuracy cost Figure 15 shows.
    """
    fig = FigureData(
        figure_id="ablation_tails",
        title=f"Iteration-time percentiles: {model_name} @ {bandwidth_gbps:g} Gbps",
        x_label="percentile",
        y_label="iteration time (s)",
    )
    for strat in (baseline(), p3(), asgd()):
        pct = iteration_time_percentiles(model_name, strat, bandwidth_gbps,
                                         n_workers=n_workers,
                                         iterations=iterations, seed=seed)
        fig.add(strat.name, list(pct), list(pct.values()))
        fig.notes[f"{strat.name}_p99_over_p50"] = round(
            pct[99.0] / pct[50.0], 3)
    return fig
