"""Extension benchmark: shared-tenant clusters and stragglers.

Section 5.3 argues P3 suits shared clusters, "where effective bandwidth
available for a single training process is much lower than the maximum
capacity of the network"; Section 5.5 notes variable iteration times
hurt synchronous scaling.  These benches quantify both."""

from __future__ import annotations

from repro.analysis import shared_cluster_sweep, straggler_sensitivity

from conftest import run_once


def test_shared_cluster_contention(benchmark, report):
    fig = run_once(benchmark, lambda: shared_cluster_sweep(
        "resnet50", bandwidth_gbps=6.0, values=(0.0, 0.2, 0.4, 0.6)))
    report(fig)
    print(f"P3 speedup: unloaded {fig.notes['speedup_unloaded']:.2f}x -> "
          f"loaded {fig.notes['speedup_loaded']:.2f}x")
    # P3's relative advantage holds or grows under contention.
    assert fig.notes["speedup_loaded"] >= fig.notes["speedup_unloaded"] - 0.03
    # Contention hurts everyone in absolute terms.
    base = fig.get("baseline")
    assert base.y[-1] < base.y[0]


def test_straggler_sensitivity(benchmark, report):
    fig = run_once(benchmark, lambda: straggler_sensitivity(
        "resnet50", values=(1.0, 1.5, 2.0)))
    report(fig)
    sync = fig.get("baseline")
    async_ = fig.get("asgd")
    print(f"with a 2x straggler: sync {sync.y_at(2.0):.0f}/s vs "
          f"asgd {async_.y_at(2.0):.0f}/s per worker")
    # Synchronous throughput tracks the slowest worker; ASGD does not.
    assert sync.y_at(2.0) < 0.65 * sync.y_at(1.0)
    assert async_.y_at(2.0) > sync.y_at(2.0) * 1.2
