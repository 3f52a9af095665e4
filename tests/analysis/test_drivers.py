"""Driver tests: each figure driver runs on scaled-down settings and
produces data with the paper's qualitative structure.  (The sweeps'
ids, labels, series and notes are pinned byte for byte by
``test_figures_golden.py``; what stays here is who wins, and where.)"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    HyperSetting,
    colocation_ablation,
    component_ablation,
    fig4_schedule_comparison,
    fig5_param_distribution,
    fig6_granularity_comparison,
    fig7_bandwidth_sweep,
    fig8_baseline_utilization,
    fig9_p3_utilization,
    fig10_scalability,
    fig11_p3_vs_dgc,
    fig12_slice_size_sweep,
    fig15_asgd_vs_p3,
    latency_sensitivity,
    priority_policy_ablation,
    utilization_trace,
)
from repro.strategies import baseline, p3


def test_fig4_priority_reduces_stall():
    out = fig4_schedule_comparison()
    assert out["p3"].stall_time < 0.6 * out["baseline"].stall_time
    assert out["p3"].compute_time == pytest.approx(6.0)


def test_fig5_structure():
    fig = fig5_param_distribution()
    assert set(fig.labels) == {"resnet50", "vgg19", "sockeye"}
    vgg = fig.get("vgg19")
    assert vgg.y.max() > 100  # the 102.8M fc6 array, in millions
    assert fig.notes["vgg19_heaviest_share"] == pytest.approx(0.715, abs=0.01)


def test_fig6_slicing_cuts_stall():
    out = fig6_granularity_comparison()
    assert out["sliced"].stall_time < 0.75 * out["layer_granularity"].stall_time


def test_fig7_sweep_tiny():
    fig = fig7_bandwidth_sweep("resnet50", values=(2.0, 8.0),
                               iterations=4, warmup=1)
    # P3 >= baseline at the constrained point
    assert fig.get("p3").y_at(2.0) >= fig.get("baseline").y_at(2.0)
    # Both near compute bound when bandwidth is ample
    assert fig.get("p3").y_at(8.0) == pytest.approx(104.0, rel=0.05)


def test_fig7_sweep_default_grid_for_extension_models():
    """Models outside the paper's four panels fall back to a wide grid."""
    fig = fig7_bandwidth_sweep("alexnet", values=(5.0, 20.0),
                               iterations=3, warmup=1)
    # AlexNet's 89%-FC skew: slicing alone already beats baseline.
    assert fig.get("slicing").y_at(5.0) > fig.get("baseline").y_at(5.0)


def test_fig10_scalability_tiny():
    fig = fig10_scalability("resnet50", values=(2, 4),
                            iterations=4, warmup=1)
    base, fast = fig.get("baseline"), fig.get("p3")
    assert fast.y[1] > fast.y[0]  # throughput grows with cluster size
    assert (fast.y >= base.y * 0.999).all()


def test_fig12_interior_optimum():
    fig = fig12_slice_size_sweep("vgg19", values=(2_000, 50_000, 1_000_000),
                                 iterations=3, warmup=1)
    y = fig.get("p3").y
    assert y[1] > y[0] and y[1] > y[2]  # peak at the interior point
    assert fig.notes["best_slice_size"] == 50_000


def test_utilization_trace_structure():
    fig = utilization_trace("resnet50", baseline(), 4.0, iterations=4,
                            warmup=1, figure_id="t")
    assert set(fig.labels) == {"outbound", "inbound"}
    assert fig.notes["outbound_peak_gbps"] <= 4.0 * 1.01
    assert fig.notes["iteration_time_s"] > 0


def test_burstiness_baseline_idles_more_than_p3():
    base, fast = fig8_baseline_utilization("vgg19"), fig9_p3_utilization("vgg19")
    assert base.notes["outbound_idle_frac"] > fast.notes["outbound_idle_frac"]
    assert fast.notes["iteration_time_s"] < base.notes["iteration_time_s"]


def test_fig11_quick():
    fig = fig11_p3_vs_dgc(settings=(HyperSetting(0.05, 0.9, 1),),
                          epochs=3, n_train=256, n_val=128)
    assert set(fig.labels) == {"p3_min", "p3_max", "dgc_min", "dgc_max"}
    assert len(fig.get("p3_min").y) == 3
    assert "mean_accuracy_drop" in fig.notes


def test_fig15_quick():
    fig = fig15_asgd_vs_p3(epochs=3, n_train=256, n_val=128)
    assert set(fig.labels) == {"p3", "asgd"}
    # ASGD iterates faster per iteration (no barrier)
    assert fig.notes["asgd_iter_time_s"] <= fig.notes["p3_iter_time_s"] * 1.05


def test_priority_policy_ablation_quick():
    fig = priority_policy_ablation("resnet50", bandwidth_gbps=3.0,
                                   policies=("forward", "reverse"),
                                   iterations=4)
    assert fig.notes["forward"] >= fig.notes["reverse"] * 0.999


def test_component_ablation_ordering():
    out = component_ablation("vgg19", bandwidth_gbps=15.0, iterations=4)
    assert out["p3"] >= out["slicing"] * 0.98
    assert out["slicing"] > out["baseline"]


def test_latency_sensitivity_quick():
    fig = latency_sensitivity("resnet50", bandwidth_gbps=4.0,
                              values=(50, 1000), iterations=4)
    p3_series = fig.get("p3")
    # P3's gains are bandwidth-scheduling gains: mild latency sensitivity.
    assert p3_series.y[1] > 0.8 * p3_series.y[0]


def test_colocation_ablation_quick():
    out = colocation_ablation("vgg19", bandwidth_gbps=15.0, iterations=3)
    assert set(out) == {"colocated", "dedicated"}
    for mode in out.values():
        assert mode["p3"] > 0 and mode["baseline"] > 0
