"""Sensitivity of the reproduction's conclusions to simulator constants.

DESIGN.md argues the qualitative results depend on byte volumes and
overlap windows, not on the calibrated cost constants.  These scans
check that: for each knob, sweep it across an order of magnitude and
record the P3-over-baseline speedup — the *conclusion* — at a
communication-constrained operating point.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..sim import ClusterConfig
from .series import FigureData
from .sweep import Sweep, config_axis

# knob -> sweep values (defaults marked by ClusterConfig defaults)
DEFAULT_SWEEPS: Dict[str, Sequence[float]] = {
    "per_message_cpu_s": (1e-6, 5e-6, 20e-6),
    "update_bytes_per_s": (1e9, 3e9, 12e9),
    "overhead_bytes": (0, 64, 512),
    "latency_s": (10e-6, 50e-6, 500e-6),
    "loopback_latency_s": (1e-6, 5e-6, 50e-6),
}


def sensitivity_scan(
    model_name: str = "resnet50",
    bandwidth_gbps: float = 4.0,
    sweeps: Dict[str, Sequence[float]] | None = None,
    **run,
) -> FigureData:
    """P3 speedup as each cost constant sweeps; one series per knob.

    x is the knob value normalized to its default (so all series share
    an axis); y is the P3/baseline speedup.  Each knob is one
    :class:`~repro.analysis.sweep.Sweep` over that ``ClusterConfig``
    field, so ``**run`` are a sweep's run parameters (``n_workers``,
    ``iterations``, ``seed``, ``jobs``, ``cache``, ...).
    """
    sweeps = sweeps if sweeps is not None else DEFAULT_SWEEPS
    fig = FigureData(
        figure_id="sensitivity",
        title=f"Speedup sensitivity: {model_name} @ {bandwidth_gbps:g} Gbps",
        x_label="knob value / default",
        y_label="P3 speedup over baseline",
    )
    for knob, values in sweeps.items():
        default = getattr(ClusterConfig, knob)
        # The knob sweeps' iteration counts (4, warmup 1) are part of the
        # published numbers.
        totals = Sweep(
            "sensitivity", "{model}", knob, config_axis(knob, type(default)),
            values, per_worker=False, iterations=4, warmup=1,
        )(model_name, bandwidth_gbps=bandwidth_gbps, **run)
        ys = (totals.get("p3").y / totals.get("baseline").y).tolist()
        fig.add(knob, [value / default if default else float(value) + 1.0
                       for value in values], ys)
        fig.notes[f"{knob}_range"] = round(max(ys) - min(ys), 3)
    all_speedups = [y for s in fig.series for y in s.y]
    fig.notes["min_speedup"] = round(float(min(all_speedups)), 3)
    fig.notes["max_speedup"] = round(float(max(all_speedups)), 3)
    return fig
