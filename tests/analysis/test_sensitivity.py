"""Tests for the sensitivity scans."""

from __future__ import annotations

import pytest

from repro.analysis.sensitivity import sensitivity_scan


def test_scan_structure():
    fig = sensitivity_scan(
        "resnet50", bandwidth_gbps=4.0,
        sweeps={"latency_s": (10e-6, 500e-6),
                "overhead_bytes": (0, 512)},
        iterations=4)
    assert set(fig.labels) == {"latency_s", "overhead_bytes"}
    for s in fig.series:
        assert len(s.y) == 2
    assert "min_speedup" in fig.notes


def test_conclusion_robust_across_knobs():
    """The headline conclusion (P3 > baseline at 4 Gbps) must survive
    order-of-magnitude changes in every cost constant."""
    fig = sensitivity_scan("resnet50", bandwidth_gbps=4.0, iterations=4)
    assert fig.notes["min_speedup"] > 1.05
