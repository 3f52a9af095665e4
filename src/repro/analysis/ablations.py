"""Ablation studies (DESIGN.md Section 6) — beyond the paper's figures.

Each ablation isolates one design choice of P3:

* ``priority_policy_ablation`` — is *consumption order* the right
  priority, or does any prioritization help?  (forward vs reverse vs
  random vs uniform)
* ``component_ablation`` — slicing-only vs priority-only vs full P3.
* ``latency_sensitivity`` — P3's gains come from bandwidth scheduling,
  so they should be robust to propagation latency.
* ``colocation_ablation`` — dedicated PS machines double the aggregate
  PS bandwidth but add machines; the paper colocates.

The sweeps are rows of :class:`~repro.analysis.sweep.Sweep`; the three
single-operating-point ablations are Figure 7 read at one bandwidth
with their own strategies, so they take its run parameters (``**run``:
``n_workers``, ``iterations``, ``warmup``, ``seed``, ``jobs``,
``cache``) and only rearrange its output.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..models import get_model
from ..strategies import (
    asgd,
    baseline,
    p3,
    p3_with_policy,
    priority_only,
    slicing_only,
)
from .bandwidth import fig7_bandwidth_sweep
from .series import FigureData
from .sweep import Sweep, config_axis

POLICIES = ("forward", "reverse", "random", "uniform")


def _fig7_column(model_name: str, bandwidth_gbps: float, strategies,
                 **run) -> Dict[str, float]:
    """Figure 7 read at one bandwidth: per-worker throughput by strategy."""
    column = fig7_bandwidth_sweep(model_name, (bandwidth_gbps,),
                                  strategies=strategies, **run)
    return {series.label: float(series.y[0]) for series in column.series}


def priority_policy_ablation(
    model_name: str = "resnet50",
    bandwidth_gbps: float = 4.0,
    policies: Sequence[str] = POLICIES,
    **run,
) -> FigureData:
    """P3 throughput under alternative priority orderings."""
    throughputs = _fig7_column(
        model_name, bandwidth_gbps,
        [p3_with_policy(policy) if policy != "forward" else p3()
         for policy in policies], **run)
    fig = FigureData(
        figure_id="ablation_priority",
        title=f"Priority policy ablation: {model_name} @ {bandwidth_gbps:g} Gbps",
        x_label="policy#",
        y_label=(f"throughput ({get_model(model_name).sample_unit}/s "
                 f"per worker)"),
    )
    for i, (policy, y) in enumerate(zip(policies, throughputs.values())):
        fig.add(policy, [i], [y])
        fig.notes[policy] = round(y, 2)
    return fig


def component_ablation(model_name: str = "vgg19",
                       bandwidth_gbps: float = 15.0, **run) -> Dict[str, float]:
    """Throughput of baseline / slicing-only / priority-only / full P3."""
    return _fig7_column(
        model_name, bandwidth_gbps,
        (baseline(), slicing_only(), priority_only(), p3()), **run)


def colocation_ablation(model_name: str = "vgg19",
                        bandwidth_gbps: float = 15.0,
                        **run) -> Dict[str, Dict[str, float]]:
    """Colocated PS shards (the paper's setup) vs dedicated PS machines."""
    return {
        key: _fig7_column(model_name, bandwidth_gbps, (baseline(), p3()),
                          colocate_servers=colocated, **run)
        for key, colocated in (("colocated", True), ("dedicated", False))
    }


latency_sensitivity = Sweep(
    "ablation_latency", "Latency sensitivity: {model} @ {bandwidth_gbps:g} Gbps",
    "latency (us)", config_axis("latency_s", lambda us: us * 1e-6),
    (10, 50, 200, 1000),
    doc="Baseline vs P3 throughput across propagation latencies.",
    base={"bandwidth_gbps": 4.0},
)


def _loaded_vs_unloaded(fig: FigureData) -> None:
    base, fast = fig.get("baseline"), fig.get("p3")
    fig.notes["speedup_unloaded"] = round(float(fast.y[0] / base.y[0]), 3)
    fig.notes["speedup_loaded"] = round(float(fast.y[-1] / base.y[-1]), 3)


shared_cluster_sweep = Sweep(
    "ablation_shared_cluster", "Shared cluster: {model} @ {bandwidth_gbps:g} Gbps",
    "background load (fraction of NIC)", config_axis("background_load"),
    (0.0, 0.2, 0.4, 0.6),
    doc="Throughput under background tenant traffic (Section 5.3's "
        "shared-cluster argument: P3's advantage grows with contention).",
    base={"bandwidth_gbps": 6.0}, notes=_loaded_vs_unloaded,
)


def _full_sharding_gain(fig: FigureData) -> None:
    fast = fig.get("p3")
    fig.notes["p3_full_sharding_gain"] = round(float(fast.y[-1] / fast.y[0]), 3)


server_count_sweep = Sweep(
    "ablation_server_count", "PS shard count: {model} @ {bandwidth_gbps:g} Gbps",
    "number of PS shards", config_axis("n_servers", int), (1, 2, 4),
    doc="Fewer PS shards concentrate traffic on fewer NICs (incast) — the "
        "load-balancing motivation behind KVStore's sharding and P3's "
        "round-robin placement.",
    model="vgg19", base={"bandwidth_gbps": 15.0},
    iterations=4, warmup=1, notes=_full_sharding_gain,
)


def _edge_vs_core(fig: FigureData) -> None:
    base, fast = fig.get("baseline"), fig.get("p3")
    fig.notes["speedup_at_edge_bottleneck"] = round(float(fast.y[0] / base.y[0]), 3)
    fig.notes["speedup_at_core_bottleneck"] = round(float(fast.y[-1] / base.y[-1]), 3)


oversubscription_sweep = Sweep(
    "ablation_oversubscription",
    "Core oversubscription: {model} @ {bandwidth_gbps:g} Gbps edge",
    "oversubscription ratio", config_axis("oversubscription"), (1.0, 2.0, 4.0),
    doc="Shared-core-switch sweep: when the oversubscribed fabric (a FIFO "
        "switch that cannot honour end-host priorities) becomes the "
        "bottleneck, P3's advantage should vanish — priority scheduling "
        "only helps where the priority queue sits.",
    base={"bandwidth_gbps": 8.0}, iterations=4, warmup=1, notes=_edge_vs_core,
)

straggler_sensitivity = Sweep(
    "ablation_straggler", "Straggler sensitivity: {model} @ {bandwidth_gbps:g} Gbps",
    "slowest-worker factor",
    lambda factor, strategy, config: (strategy, {
        **config, "straggler_factors":
            (1.0,) * (config["n_workers"] - 1) + (float(factor),)}),
    (1.0, 1.25, 1.5, 2.0),
    doc="One slow worker: synchronous SGD pays the barrier, ASGD does not "
        "(the trade-off behind Appendix B.2).",
    strategies=lambda: (baseline(), p3(), asgd()),
    base={"bandwidth_gbps": 10.0, "n_workers": 4},
)
