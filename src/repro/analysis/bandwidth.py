"""Figure 7: throughput vs. network bandwidth (the headline experiment).

Sweeps interface bandwidth for Baseline / Slicing / P3 on a 4-machine
cluster, exactly the setup of Section 5.3 (tc-qdisc throttling of a
100 Gbps fabric).  Throughput is reported per worker, matching the
figure's axes.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..strategies import StrategyConfig, baseline, p3, slicing_only
from .series import FigureData, speedup
from .sweep import Sweep, config_axis

# Bandwidth grids used by the paper's sub-figures.
FIG7_GRIDS: Dict[str, Sequence[float]] = {
    "resnet50": (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    "inceptionv3": (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    "vgg19": (2, 5, 10, 15, 20, 25, 30),
    "sockeye": (2, 5, 10, 15, 20, 25, 30),
}

FIG7_PANELS = {"resnet50": "fig7a", "inceptionv3": "fig7b",
               "vgg19": "fig7c", "sockeye": "fig7d"}

# Abstract / Section 5.3: the paper's maximum P3-over-baseline speedups.
PAPER_PEAK_SPEEDUP = {"resnet50": 1.25, "inceptionv3": 1.18,
                      "vgg19": 1.66, "sockeye": 1.38}


def default_strategies() -> Sequence[StrategyConfig]:
    return (baseline(), slicing_only(), p3())


def _peak_speedup(fig: FigureData) -> None:
    if {"baseline", "p3"} <= set(fig.labels):
        ratios = speedup(fig, over="baseline", of="p3")
        best = float(ratios.y.max())
        fig.notes["max_p3_speedup"] = round(best, 3)
        fig.notes["max_p3_speedup_at_gbps"] = float(ratios.x[ratios.y.argmax()])


fig7_bandwidth_sweep = Sweep(
    "fig7", "Bandwidth vs throughput: {model}", "bandwidth (Gbps)",
    config_axis("bandwidth_gbps"),
    # Models outside the paper's four panels get the wide grid.
    grid=(1, 2, 4, 6, 8, 10, 15, 20, 30),
    doc="Throughput-vs-bandwidth series for one model (one Fig 7 panel).",
    strategies=default_strategies,
    panels=FIG7_PANELS, model_grids=FIG7_GRIDS, notes=_peak_speedup,
)


def peak_speedups(model_names: Sequence[str] = tuple(FIG7_GRIDS),
                  **kwargs) -> Dict[str, float]:
    """Max P3-over-baseline speedup per model (the abstract's 25/38/66%)."""
    out = {}
    for name in model_names:
        fig = fig7_bandwidth_sweep(name, **kwargs)
        out[name] = float(fig.notes["max_p3_speedup"])
    return out
