"""Figures 8, 9, 13, 14: network-utilization traces.

Reproduces the bwm-ng methodology of Section 5.4: inbound and outbound
interface usage of one worker machine, sampled in 10 ms bins, while
training under a given strategy and bandwidth cap.
"""

from __future__ import annotations

import numpy as np

from ..models import get_model
from ..sim import ClusterConfig, simulate
from ..strategies import StrategyConfig, baseline, get_strategy, p3
from .series import FigureData

# The (model, bandwidth) pairs shown in the paper's utilization figures.
FIG8_9_CONFIGS = {
    "resnet50": 4.0,
    "vgg19": 15.0,
    "sockeye": 4.0,
}


def utilization_trace(
    model_name: str,
    strategy: StrategyConfig,
    bandwidth_gbps: float,
    n_workers: int = 4,
    iterations: int = 5,
    warmup: int = 2,
    machine: int = 0,
    bin_s: float = 0.01,
    figure_id: str = "util",
    seed: int = 0,
) -> FigureData:
    """Outbound/inbound Gbps series for one machine at 10 ms resolution."""
    model = get_model(model_name)
    cfg = ClusterConfig(n_workers=n_workers, bandwidth_gbps=bandwidth_gbps, seed=seed)
    result = simulate(model, strategy, cfg, iterations=iterations,
                      warmup=warmup, trace_utilization=True)
    assert result.utilization is not None
    fig = FigureData(
        figure_id=figure_id,
        title=f"{model_name} on {strategy.name} at {bandwidth_gbps:g} Gbps",
        x_label=f"time ({bin_s * 1000:g} ms bins)",
        y_label="usage (Gbps)",
    )
    for direction, label in (("tx", "outbound"), ("rx", "inbound")):
        times, gbps = result.utilization.series(
            machine, direction, bin_s=bin_s,
            t_start=result.steady_start, t_end=result.steady_end)
        bins = np.arange(len(gbps))
        fig.add(label, bins, gbps)
        fig.notes[f"{label}_peak_gbps"] = round(float(gbps.max()), 3)
        fig.notes[f"{label}_mean_gbps"] = round(float(gbps.mean()), 3)
        fig.notes[f"{label}_idle_frac"] = round(float(np.mean(gbps < 0.01)), 3)
    busy_tx, busy_rx = (fig.get(label).y > 0.2 for label in ("outbound", "inbound"))
    fig.notes["tx_rx_overlap"] = round(float(  # both directions busy ÷ either busy
        np.mean(busy_tx & busy_rx) / max(np.mean(busy_tx | busy_rx), 1e-9)), 3)
    fig.notes["bandwidth_gbps"] = bandwidth_gbps
    fig.notes["iteration_time_s"] = round(result.mean_iteration_time, 4)
    fig.notes["throughput_per_worker"] = round(result.throughput / n_workers, 2)
    return fig


def fig8_baseline_utilization(model_name: str, **kwargs) -> FigureData:
    """Figure 8: bursty baseline traffic with long idle gaps."""
    bw = FIG8_9_CONFIGS[model_name]
    return utilization_trace(model_name, baseline(), bw,
                             figure_id=f"fig8_{model_name}", **kwargs)


def fig9_p3_utilization(model_name: str, **kwargs) -> FigureData:
    """Figure 9: P3's smoother, overlapped bidirectional traffic."""
    bw = FIG8_9_CONFIGS[model_name]
    return utilization_trace(model_name, p3(), bw,
                             figure_id=f"fig9_{model_name}", **kwargs)


def fig13_tensorflow_utilization(**kwargs) -> FigureData:
    """Figure 13 (Appendix B.1): ResNet-50 under TensorFlow-style sync."""
    return utilization_trace("resnet50", get_strategy("tensorflow"), 4.0,
                             figure_id="fig13", **kwargs)


def fig14_poseidon_utilization(**kwargs) -> FigureData:
    """Figure 14 (Appendix B.1): InceptionV3 under Poseidon WFBP at 1 Gbps."""
    return utilization_trace("inceptionv3", get_strategy("poseidon"), 1.0,
                             figure_id="fig14", **kwargs)
