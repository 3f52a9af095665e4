"""Ablation benchmarks (beyond the paper's figures; DESIGN.md Section 6).

These quantify how much each of P3's design choices contributes."""

from __future__ import annotations

import pytest

from repro.analysis import (
    colocation_ablation,
    component_ablation,
    latency_sensitivity,
    priority_policy_ablation,
)

from conftest import run_once


def test_ablation_components_vgg19(benchmark):
    """Slicing vs priority vs both, on the model where both matter."""
    out = run_once(benchmark, lambda: component_ablation("vgg19", 15.0))
    print()
    for name, tput in out.items():
        print(f"  {name:15s} {tput:6.1f} images/s/worker "
              f"({tput / out['baseline']:.2f}x)")
    assert out["p3"] >= out["slicing"] * 0.98
    assert out["slicing"] > out["baseline"] * 1.2


def test_ablation_components_resnet50(benchmark):
    """On small-layer models priority does the work, not slicing."""
    out = run_once(benchmark, lambda: component_ablation("resnet50", 4.0))
    print()
    for name, tput in out.items():
        print(f"  {name:15s} {tput:6.1f} images/s/worker "
              f"({tput / out['baseline']:.2f}x)")
    assert out["p3"] > out["baseline"] * 1.1
    assert out["slicing"] < out["baseline"] * 1.15


def test_ablation_priority_policies(benchmark):
    """Consumption-order priorities beat reverse/random/uniform."""
    fig = run_once(benchmark, lambda: priority_policy_ablation(
        "resnet50", 4.0, policies=("forward", "reverse", "random", "uniform")))
    print()
    for label in fig.labels:
        print(f"  {label:10s} {fig.notes[label]:6.1f} images/s/worker")
    assert fig.notes["forward"] >= fig.notes["reverse"]
    assert fig.notes["forward"] >= fig.notes["random"] * 0.999
    assert fig.notes["forward"] >= fig.notes["uniform"] * 0.999


def test_ablation_latency(benchmark, report):
    """P3's gains are bandwidth-scheduling gains: robust to latency."""
    fig = run_once(benchmark, lambda: latency_sensitivity(
        "resnet50", values=(10, 50, 200, 1000), bandwidth_gbps=4.0))
    report(fig, "ablation_latency.csv")
    p3_series = fig.get("p3")
    assert p3_series.y.min() > 0.75 * p3_series.y.max()


def test_ablation_server_count(benchmark, report):
    """Incast: fewer PS shards concentrate traffic on fewer NICs."""
    from repro.analysis import server_count_sweep
    fig = run_once(benchmark, lambda: server_count_sweep("vgg19", (1, 2, 4)))
    report(fig)
    print(f"P3 gain from full sharding (1 -> 4 shards): "
          f"{fig.notes['p3_full_sharding_gain']:.2f}x")
    # More shards never hurt; with one shard its NIC is the bottleneck.
    fast = fig.get("p3")
    assert fast.y[-1] > fast.y[0]
    assert fig.notes["p3_full_sharding_gain"] > 1.5


def test_ablation_colocation(benchmark):
    """Dedicated PS machines relieve the shared NIC but cost hardware."""
    out = run_once(benchmark, lambda: colocation_ablation("vgg19", 15.0))
    print()
    for mode, strat in out.items():
        print(f"  {mode:10s} baseline={strat['baseline']:6.1f} "
              f"p3={strat['p3']:6.1f} images/s/worker")
    # Observational ablation: no general ordering holds (dedicated
    # servers double aggregate PS bandwidth but concentrate incast of
    # the baseline's batched per-layer pulls).  P3, which streams slices
    # and broadcasts, is insensitive to the deployment choice.
    p3_ratio = out["dedicated"]["p3"] / out["colocated"]["p3"]
    assert 0.9 <= p3_ratio <= 1.15
