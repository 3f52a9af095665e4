"""The allreduce extension's figure: P3's launch discipline on one ring."""

from __future__ import annotations

from typing import Sequence

from ..allreduce import (AllreduceConfig, AllreduceStrategy, framework_bucketing,
                         priority_allreduce, simulate_allreduce, unsliced_priority_allreduce)
from ..models import get_model
from .series import FigureData


def allreduce_sweep(
    model_name: str = "vgg19",
    values: Sequence[float] = (4_000_000,),
    *,
    n_workers: int = 4,
    iterations: int = 5,
    warmup: int = 1,
) -> FigureData:
    """Per-worker throughput of the three launch disciplines on one ring.

    ``allreduce_p3`` (sliced buckets, priority launch) runs at each slice
    size in ``values`` (bytes), the allreduce analogue of Figure 12.  The
    framework's 25 MB fused buckets, launched FIFO (``allreduce_fifo``) or
    by priority (``allreduce_priority_only``), do not slice: each runs
    once and is drawn flat across the sizes.
    """
    model = get_model(model_name)
    cfg = AllreduceConfig(n_workers=n_workers)

    def per_worker(strategy: AllreduceStrategy) -> float:
        return simulate_allreduce(model, strategy, cfg, iterations,
                                  warmup).throughput / n_workers

    fig = FigureData(
        figure_id=f"allreduce_{model_name}",
        title=f"Ring allreduce: {model_name} @ {cfg.bandwidth_gbps:g} Gbps",
        x_label="slice size (bytes)",
        y_label=f"throughput ({model.sample_unit}/s per worker)",
    )
    for strategy in (framework_bucketing(), unsliced_priority_allreduce()):
        fig.add(strategy.name, values, [per_worker(strategy)] * len(values))
    fig.add("allreduce_p3", values,
            [per_worker(priority_allreduce(int(size))) for size in values])
    return fig
