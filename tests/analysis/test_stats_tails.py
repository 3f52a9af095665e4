"""Tests for multi-seed statistics and tail analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import SeedStats, _across_seeds, summarize
from repro.analysis.tails import iteration_time_percentiles, tail_comparison
from repro.strategies import baseline, p3


def test_summarize_basic():
    s = summarize([10.0, 12.0, 14.0])
    assert s.mean == pytest.approx(12.0)
    assert s.std == pytest.approx(2.0)
    assert s.n == 3
    assert s.lo < s.mean < s.hi


def test_summarize_single_value():
    s = summarize([5.0])
    assert s.mean == 5.0 and s.std == 0.0 and s.ci95_half_width == 0.0


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def _seed_spread(model, seeds, **run):
    return _across_seeds(model, seeds, bandwidth_gbps=4.0, iterations=4, **run)


def test_throughput_stats_deterministic_model_has_zero_std():
    """ResNet-50 has no jitter; only placement randomness (none for P3's
    round-robin) — seeds must agree for deterministic strategies."""
    s = summarize(_seed_spread("resnet50", (0, 1, 2), strategies=(p3(),)).get("p3").y)
    assert s.std == pytest.approx(0.0, abs=1e-6)


def test_throughput_stats_jittery_model_varies():
    fig = _seed_spread("sockeye", (0, 1, 2), strategies=(baseline(),))
    assert summarize(fig.get("baseline").y).std > 0.0


def test_speedup_stats():
    fig = _seed_spread("resnet50", (0, 1))
    s = summarize(fig.get("p3").y / fig.get("baseline").y)
    assert s.mean > 1.1  # P3 wins at the constrained point, across seeds


def test_iteration_percentiles_ordered():
    pct = iteration_time_percentiles("sockeye", baseline(), 4.0,
                                     iterations=12, warmup=2)
    assert pct[50.0] <= pct[90.0] <= pct[99.0]


def test_tail_comparison_structure():
    fig = tail_comparison("sockeye", iterations=12)
    assert set(fig.labels) == {"baseline", "p3", "asgd"}
    # ASGD removes the barrier: its p99/p50 ratio is no worse than the
    # synchronous baseline's.
    assert fig.notes["asgd_p99_over_p50"] <= fig.notes["baseline_p99_over_p50"] * 1.2
