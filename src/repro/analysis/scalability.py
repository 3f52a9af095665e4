"""Figure 10: throughput scaling with cluster size.

The paper's Section 5.5 runs AWS g3.4xlarge machines on a shared
10 Gbps network.  ``compute_scale=0.5`` calibrates the g3's M60 GPU
against the P4000 testbed rates (ResNet-50 at ~52 img/s/worker matches
the figure's ~800 img/s at 16 machines).
"""

from __future__ import annotations

from .series import FigureData
from .sweep import Sweep, config_axis

FIG10_SIZES = (2, 4, 8, 16)
FIG10_PANELS = {"resnet50": "fig10a", "vgg19": "fig10b", "sockeye": "fig10c"}
AWS_COMPUTE_SCALE = 0.5


def _scaling_notes(fig: FigureData) -> None:
    base = fig.get("baseline")
    new = fig.get("p3")
    gains = new.y / base.y
    fig.notes["max_p3_speedup"] = round(float(gains.max()), 3)
    fig.notes["max_p3_speedup_at_size"] = int(base.x[gains.argmax()])
    fig.notes["scaling_efficiency_p3"] = round(
        float((new.y[-1] / new.x[-1]) / (new.y[0] / new.x[0])), 3)
    fig.notes["scaling_efficiency_baseline"] = round(
        float((base.y[-1] / base.x[-1]) / (base.y[0] / base.x[0])), 3)


fig10_scalability = Sweep(
    "fig10", "Scalability: {model} @ {bandwidth_gbps:g} Gbps", "cluster size",
    config_axis("n_workers", int), FIG10_SIZES,
    doc="Cluster-total throughput at each cluster size, baseline vs P3.",
    base={"bandwidth_gbps": 10.0, "compute_scale": AWS_COMPUTE_SCALE},
    panels=FIG10_PANELS, per_worker=False, notes=_scaling_notes,
)
