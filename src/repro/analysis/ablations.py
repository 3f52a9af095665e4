"""Ablation studies (DESIGN.md Section 6) — beyond the paper's figures.

Each sweep here isolates one condition P3's gains depend on: propagation
latency (its gains are bandwidth scheduling, not latency hiding),
tenant traffic sharing the NIC, the number of PS shards, an
oversubscribed FIFO core, and one slow worker.  The single-point
ablations (components, priority policies, dedicated PS machines) are
Figure 7 columns with their own strategies: runs of
:mod:`repro.analysis.claims`.
"""

from __future__ import annotations

from ..strategies import asgd, baseline, p3
from .series import FigureData
from .sweep import Sweep, config_axis

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
