"""Figure 12: throughput vs. parameter-slice size.

Section 5.7's sweep: below the optimum, per-message overheads dominate;
above it, pipelining/preemption granularity degrades.  The paper finds
50,000 parameters per slice optimal.
"""

from __future__ import annotations

from ..strategies import p3
from .series import FigureData
from .sweep import Sweep

FIG12_SLICES = (1_000, 3_000, 10_000, 30_000, 50_000, 100_000, 300_000, 1_000_000)
FIG12_PANELS = {"resnet50": "fig12a", "vgg19": "fig12b", "sockeye": "fig12c"}
# Bandwidths chosen as in the paper's sensitive regimes (Fig 7).
FIG12_BANDWIDTH = {"resnet50": 4.0, "vgg19": 15.0, "sockeye": 4.0}


def _best_slice(fig: FigureData) -> None:
    s = fig.get("p3")
    fig.notes["best_slice_size"] = int(s.x[s.y.argmax()])
    fig.notes["best_throughput"] = round(float(s.y.max()), 2)


fig12_slice_size_sweep = Sweep(
    "fig12", "Slice size vs throughput: {model} @ {bandwidth_gbps:g} Gbps",
    "slice size (parameters)",
    # The one axis that lands on the strategy, not the cluster.
    lambda size, strategy, config: (strategy.with_slice(int(size)), config),
    FIG12_SLICES,
    doc="P3 throughput per worker at each slice size for one model.",
    strategies=lambda: (p3(),),
    base={"bandwidth_gbps": 4.0},
    model_base={name: {"bandwidth_gbps": bw}
                for name, bw in FIG12_BANDWIDTH.items()},
    panels=FIG12_PANELS, iterations=4, warmup=1, notes=_best_slice,
)
