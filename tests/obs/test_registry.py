"""Unit tests for the repro.obs metrics registry."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    live_session,
    sim_session,
)


def test_counter_accumulates():
    reg = MetricsRegistry()
    c = reg.counter("net.slices_sent")
    c.inc()
    c.inc(4)
    assert reg.counter("net.slices_sent") is c
    assert c.snapshot() == {"type": "counter", "value": 5}


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    g = reg.gauge("engine.now_s")
    g.set(1.5)
    g.set(2.5)
    assert g.snapshot() == {"type": "gauge", "value": 2.5}


def test_histogram_moments_exact():
    h = Histogram("t")
    for v in (0.001, 0.002, 0.003, 0.004):
        h.observe(v)
    snap = h.snapshot()
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(0.010)
    assert snap["mean"] == pytest.approx(0.0025)
    assert snap["min"] == pytest.approx(0.001)
    assert snap["max"] == pytest.approx(0.004)


def test_histogram_percentiles_bounded_by_bucket_width():
    """Log-spaced buckets bound relative error; spot-check p50/p95/p99
    on a uniform-ish spread against the exact order statistics."""
    h = Histogram("lat")
    samples = [i / 1000.0 for i in range(1, 1001)]  # 1 ms .. 1 s
    for v in samples:
        h.observe(v)
    for q, exact in ((50, 0.5), (95, 0.95), (99, 0.99)):
        est = h.percentile(q)
        assert abs(est - exact) / exact < 0.10, (q, est, exact)


def test_histogram_never_reports_outside_observed_range():
    h = Histogram("x")
    h.observe(0.02)
    assert h.percentile(0) >= 0.02
    assert h.percentile(100) <= 0.02


def test_histogram_underflow_and_empty():
    h = Histogram("u")
    assert h.percentile(50) == 0.0
    assert h.snapshot()["count"] == 0
    h.observe(0.0)  # below lo -> underflow bucket, exact min retained
    assert h.percentile(50) == 0.0
    with pytest.raises(ValueError):
        h.percentile(101)
    with pytest.raises(ValueError):
        Histogram("bad", lo=0.0)


def test_registry_snapshot_is_json_ready_and_sorted():
    reg = MetricsRegistry()
    reg.histogram("z.h").observe(0.5)
    reg.counter("a.c").inc()
    snap = reg.snapshot()
    assert list(snap) == sorted(snap)
    json.dumps(snap)  # must not raise


def test_sessions_tag_their_source():
    sim = sim_session()
    live = live_session(clock=lambda: 1.0)
    assert sim.source == "sim" and live.source == "live"
    assert sim.metrics() == {}
    assert sim.events() == []
