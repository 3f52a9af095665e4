"""Figure 7: throughput vs bandwidth for Baseline / Slicing / P3 on a
4-machine cluster — the paper's headline experiment.

Shape expectations (Section 5.3):
  (a) ResNet-50:    baseline degrades below ~6 Gbps, P3 holds to ~4 Gbps;
                    slicing alone ≈ baseline.  Peak speedup ~26%.
  (b) InceptionV3:  like ResNet-50; peak speedup ~18%.
  (c) VGG-19:       slicing alone gives a large win (one 102.8M-param
                    layer); P3 adds more.  Peak speedup ~66%.
  (d) Sockeye:      heavy *first* layer; P3 wins via bidirectional
                    overlap.  Peak speedup ~38%.
"""

from __future__ import annotations

import pytest

from repro.analysis import fig7_bandwidth_sweep
from repro.analysis.series import speedup

from conftest import run_once
from paper_expectations import PAPER_PEAK_SPEEDUP


def _run_panel(benchmark, report, model_name, check):
    fig = run_once(benchmark,
                   lambda: fig7_bandwidth_sweep(model_name, iterations=5))
    report(fig)
    ratio = speedup(fig, over="baseline", of="p3")
    print(f"paper peak speedup: {PAPER_PEAK_SPEEDUP[model_name]:.2f}x | "
          f"measured: {fig.notes['max_p3_speedup']:.2f}x "
          f"at {fig.notes['max_p3_speedup_at_gbps']:g} Gbps")
    check(fig, ratio)


def test_fig07a_resnet50(benchmark, report):
    def check(fig, ratio):
        assert fig.notes["max_p3_speedup"] > 1.15
        # P3 >= baseline everywhere
        assert (ratio.y >= 0.97).all()
        # slicing alone ≈ baseline (small layers)
        s = speedup(fig, over="baseline", of="slicing")
        assert s.y.max() < 1.2
    _run_panel(benchmark, report, "resnet50", check)


def test_fig07b_inceptionv3(benchmark, report):
    def check(fig, ratio):
        assert fig.notes["max_p3_speedup"] > 1.10
        s = speedup(fig, over="baseline", of="slicing")
        assert s.y.max() < 1.25
    _run_panel(benchmark, report, "inceptionv3", check)


def test_fig07c_vgg19(benchmark, report):
    def check(fig, ratio):
        assert fig.notes["max_p3_speedup"] > 1.4
        # slicing alone already provides a large share of the gain
        s = speedup(fig, over="baseline", of="slicing")
        assert s.y.max() > 1.3
    _run_panel(benchmark, report, "vgg19", check)


def test_fig07d_sockeye(benchmark, report):
    def check(fig, ratio):
        assert fig.notes["max_p3_speedup"] > 1.1
    _run_panel(benchmark, report, "sockeye", check)


def test_fig07_crossovers_resnet50(benchmark, report):
    """The paper's crossover claim: baseline plateau ends ~6 Gbps,
    P3's ~4 Gbps."""
    fig = run_once(benchmark, lambda: fig7_bandwidth_sweep(
        "resnet50", values=(3, 4, 5, 6, 7, 8), iterations=5))
    report(fig, "fig7_crossover.csv")
    base, fast = fig.get("baseline"), fig.get("p3")
    plateau = 104.0
    print(f"paper: baseline drops <6 Gbps, P3 holds to 4 Gbps | measured: "
          f"baseline@6={base.y_at(6):.0f}, baseline@4={base.y_at(4):.0f}, "
          f"p3@4={fast.y_at(4):.0f} (plateau {plateau:.0f})")
    assert base.y_at(6) > 0.90 * plateau
    assert base.y_at(4) < 0.85 * plateau
    assert fast.y_at(4) > 0.93 * plateau
