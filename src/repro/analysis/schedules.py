"""Figures 4 and 6: the paper's worked toy-model examples.

These drivers configure the simulator so the toy scenarios hold exactly
(fwd = bwd = 1 time unit per layer; synchronizing one layer costs ~2
units), then measure the inter-iteration delay (Fig 4) and the
communication cost of coarse vs. fine granularity (Fig 6).

A single worker plus one *remote* parameter server reproduces the
figures' single-pipe abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..models import fig4_model, fig6_model
from ..models.base import BYTES_PER_PARAM
from ..sim import ClusterConfig, simulate
from ..strategies import StrategyConfig, baseline, p3, slicing_only
from .series import FigureData

def _toy_cluster(update_fraction: float = 0.0) -> ClusterConfig:
    """Single worker, one remote PS, negligible fixed overheads.

    ``update_fraction`` sets the server update cost as a fraction of one
    layer's transfer time (Figure 6 draws update ≈ transfer).
    """
    layer_bytes = 25_000 * BYTES_PER_PARAM
    rate = layer_bytes  # bytes/s such that one toy layer takes 1 s
    update_rate = rate / update_fraction if update_fraction > 0 else 1e15
    return ClusterConfig(
        n_workers=1,
        n_servers=1,
        colocate_servers=False,
        bandwidth_gbps=rate * 8 / 1e9,
        latency_s=1e-6,
        overhead_bytes=0,
        per_message_cpu_s=0.0,
        per_update_s=0.0,
        update_bytes_per_s=update_rate,
    )


@dataclass
class ScheduleOutcome:
    strategy: str
    iteration_time: float
    compute_time: float
    stall_time: float  # the "Delay" annotation of Figure 4


def _run_toy(model, strategy: StrategyConfig, update_fraction: float = 0.0,
             iterations: int = 6, warmup: int = 2) -> ScheduleOutcome:
    cfg = _toy_cluster(update_fraction)
    result = simulate(model, strategy, cfg, iterations=iterations, warmup=warmup)
    compute = model.iteration_compute_time()
    return ScheduleOutcome(
        strategy=strategy.name,
        iteration_time=result.mean_iteration_time,
        compute_time=compute,
        stall_time=result.mean_iteration_time - compute,
    )


def fig4_schedule_comparison() -> Dict[str, ScheduleOutcome]:
    """Aggressive vs priority-based sync on the 3-equal-layer toy model."""
    model = fig4_model()
    return {
        "baseline": _run_toy(model, baseline()),
        "p3": _run_toy(model, p3(slice_params=5_000)),
    }


def fig6_granularity_comparison(update_fraction: float = 1.0) -> Dict[str, ScheduleOutcome]:
    """Layer-level vs sliced sync on the heavy-middle-layer toy model.

    With update time ≈ transfer time (the figure's premise), slicing
    pipelines receive/update/send.
    """
    model = fig6_model()
    return {
        "layer_granularity": _run_toy(model, baseline(), update_fraction),
        "sliced": _run_toy(model, slicing_only(slice_params=25_000), update_fraction),
    }


def schedule_figure(outcomes: Dict[str, ScheduleOutcome], figure_id: str,
                    title: str) -> FigureData:
    """Pack outcomes into a FigureData for uniform reporting."""
    fig = FigureData(figure_id=figure_id, title=title,
                     x_label="strategy#", y_label="seconds")
    for i, (name, out) in enumerate(sorted(outcomes.items())):
        fig.add(f"{name}_iter", [i], [out.iteration_time])
        fig.add(f"{name}_stall", [i], [out.stall_time])
        fig.notes[f"{name}_stall_s"] = round(out.stall_time, 3)
    return fig
