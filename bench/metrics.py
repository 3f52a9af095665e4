"""The benchmark's vocabulary: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` is this module rendered (:func:`benchmark_doc`; a test
holds them equal).  ``README.md`` is the glossary; the one-line ``moves``
strings below are the predictions later changes are judged against —
which end-to-end metric a layer metric should move, on which workload.
Everything not named there is predicted unchanged.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: How long one driver run measures: a workload's fixed-size batch job
#: runs twice, then repeats while another repetition still fits in this
#: many seconds.
RUN_SECONDS = 12

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("fig7_sweep",
     "The paper's headline vgg19 bandwidth sweep through run_grid: few "
     "nodes, thousands of slices per link, so network closures and "
     "worker/server send paths dominate and the heap stays shallow."),
    ("scale_ladder",
     "resnet50/p3 at 4, 32, 256 workers and a 64-worker two-tier point: "
     "many nodes, few slices per link, so heap depth, per-message "
     "protocol callbacks, aggregators and wire-up cost dominate."),
    ("warm_cached_sweep",
     "A warm-start sweep written to a SimCache then read back 200 times: "
     "live-counter engine loops, steady-state verification, plan reuse "
     "and cache reads, which no other workload runs."),
    ("tenants8",
     "Eight weighted tenants on one shared engine: cancellable links "
     "force the dynamic Channel.set_rate path instead of the static "
     "closures, plus scheduler admission and bandwidth re-sharing."),
    ("obs_traced_sim",
     "One vgg19/p3 run with repro.obs attached, then its exporters and "
     "schema validator: the only workload where observation does most "
     "of the work, so its cost can be bounded or removed."),
    ("aio_live",
     "An unshaped asyncio live run, 2 workers and 1 shard moving 2.6 MB "
     "each way per worker per iteration: CPU-bound wire codec, priority "
     "sender drain, per-frame acks and server apply; shaper bypassed."),
    ("aio_shaped",
     "The same live driver rate-limited with emulated compute, p3 then "
     "baseline: wall is set by bytes over rate, so codec speed must not "
     "move it while chunk scheduling and shaper accuracy do."),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


#: Emitted by every workload of every untraced run; the driver gates a
#: later change on each (bound = share of the parent's median by which
#: the metric may worsen).  The time bounds are the format's maximum: on
#: the shared box run-to-run spread of a time is 2-8 % (10 % for the CPU
#: time of the mostly idle ``aio_shaped``), and the format wants each
#: spread under a third of its bound (README, "How steady").
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("cpu_s", "s", "lower", 0.25),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10),
)


class Extra(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    workloads: Tuple[str, ...]


#: End-to-end metrics only some workloads have.  The driver's format
#: wants every end-to-end metric from every workload, so these are
#: reported and gated by ``--compare`` / ``--selfcheck`` instead.
EXTRA_END_TO_END: Tuple[Extra, ...] = (
    Extra("failed_share", "ratio", "lower", 0.0, WORKLOAD_NAMES),
    Extra("iter_ms_p50", "ms", "lower", 0.10, ("aio_live", "aio_shaped")),
    Extra("goodput_mb_per_s", "MB/s", "higher", 0.10, ("aio_live",)),
    Extra("sim_p3_speedup_x", "x", "higher", 0.0, ("fig7_sweep",)),
    Extra("live_p3_speedup_x", "x", "higher", 0.05, ("aio_shaped",)),
)


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # "<end-to-end metric>@<workload>[, ...]" or "-"
    exact: bool = False  # a count that must repeat bit for bit


_SIM = "fig7_sweep, scale_ladder"

LAYERS: Tuple[Layer, ...] = (
    # sim.engine
    Layer("engine.events", "count", "lower", "-", exact=True),
    Layer("engine.events_per_s", "1/s", "higher", f"wall_s@{_SIM}"),
    Layer("engine.run_share_pct", "%", "lower", f"wall_s@{_SIM}"),
    Layer("engine.self_pct", "%", "lower",
          "wall_s@scale_ladder, then fig7_sweep"),
    Layer("engine.heap_ops_per_event", "1/event", "lower",
          "wall_s@scale_ladder", exact=True),
    Layer("engine.scale_cost_x", "x", "lower", "wall_s@scale_ladder"),
    Layer("engine.flag_batch_off_x", "x", "lower", "-"),
    Layer("engine.flag_fastheap_x", "x", "lower", "-"),
    Layer("engine.chain_events_per_s", "1/s", "higher", "-"),
    Layer("engine.wave_events_per_s", "1/s", "higher", "-"),
    # sim.network
    Layer("network.self_pct", "%", "lower", "wall_s@fig7_sweep"),
    Layer("network.fifo_msgs_per_s", "1/s", "higher", "wall_s@fig7_sweep"),
    Layer("network.prio_msgs_per_s", "1/s", "higher", "wall_s@fig7_sweep"),
    Layer("network.dynamic_msgs_per_s", "1/s", "higher", "wall_s@tenants8"),
    # sim.worker / sim.server / sim.aggregator
    Layer("worker.self_pct", "%", "lower", "wall_s@scale_ladder"),
    Layer("server.self_pct", "%", "lower", f"wall_s@{_SIM}"),
    Layer("aggregator.self_pct", "%", "lower", "wall_s@scale_ladder"),
    Layer("protocol.calls_per_event", "1/event", "lower",
          "wall_s@scale_ladder", exact=True),
    # sim.cluster + repro.placement
    Layer("cluster.self_pct", "%", "lower", "wall_s@obs_traced_sim"),
    Layer("plan.build_ms", "ms", "lower", "setup_s@scale_ladder"),
    Layer("cluster.wireup_ms", "ms", "lower", "setup_s@scale_ladder"),
    Layer("cluster.collect_ms", "ms", "lower", "wall_s@scale_ladder"),
    Layer("placement.plan_ms", "ms", "lower", "setup_s@scale_ladder"),
    # analysis.runner / analysis.cache / analysis.warmstart
    Layer("analysis.self_pct", "%", "lower", "wall_s@warm_cached_sweep"),
    Layer("runner.doc_roundtrip_us", "us", "lower", "wall_s@fig7_sweep"),
    Layer("cache.salt_ms", "ms", "lower", "setup_s@warm_cached_sweep"),
    Layer("cache.get_hit_us", "us", "lower", "wall_s@warm_cached_sweep"),
    Layer("cache.get_miss_us", "us", "lower", "wall_s@warm_cached_sweep"),
    Layer("cache.put_us", "us", "lower", "wall_s@warm_cached_sweep"),
    Layer("cache.hit_share", "ratio", "higher", "wall_s@warm_cached_sweep"),
    Layer("warm.extrapolated_share", "ratio", "higher",
          "wall_s@warm_cached_sweep"),
    Layer("warm.fallback_count", "count", "lower",
          "wall_s@warm_cached_sweep", exact=True),
    Layer("warm.max_rel_err", "ratio", "lower", "-"),
    # repro.tenancy
    Layer("tenancy.self_pct", "%", "lower", "wall_s@tenants8"),
    Layer("tenancy.admissions", "count", "lower", "-", exact=True),
    Layer("tenancy.reshares", "count", "lower", "wall_s@tenants8",
          exact=True),
    Layer("tenancy.sched_us_per_decision", "us", "lower", "wall_s@tenants8"),
    Layer("shaper.reserve_us", "us", "lower", "wall_s@tenants8"),
    # repro.obs
    Layer("obs.self_pct", "%", "lower", "wall_s@obs_traced_sim"),
    Layer("obs.events", "count", "lower", "-", exact=True),
    Layer("obs.us_per_event", "us", "lower", "wall_s@obs_traced_sim"),
    Layer("obs.sim_overhead_x", "x", "lower", "wall_s@obs_traced_sim"),
    Layer("obs.export_ms", "ms", "lower", "wall_s@obs_traced_sim"),
    Layer("obs.live_overhead_x", "x", "lower", "-"),
    # live.wire
    Layer("wire.self_pct", "%", "lower", "cpu_s@aio_live, aio_shaped"),
    Layer("wire.encode_mb_per_s.c8k", "MB/s", "higher",
          "wall_s@aio_live; cpu_s only @aio_shaped"),
    Layer("wire.encode_mb_per_s.c1k", "MB/s", "higher", "cpu_s@aio_live"),
    Layer("wire.encode_us_per_frame", "us", "lower", "wall_s@aio_live"),
    Layer("wire.decode_mb_per_s", "MB/s", "higher",
          "wall_s@aio_live; cpu_s only @aio_shaped"),
    # live.transport
    Layer("transport.self_pct", "%", "lower", "wall_s@aio_live"),
    Layer("chunksched.pop_us", "us", "lower", "wall_s@aio_live"),
    Layer("bucket.reserve_us", "us", "lower", "cpu_s@aio_shaped"),
    Layer("outbox.record_ack_us", "us", "lower", "wall_s@aio_live"),
    Layer("sender.goodput_mb_per_s", "MB/s", "higher", "wall_s@aio_live"),
    Layer("sender.rate_error_pct", "%", "lower",
          "live_p3_speedup_x, wall_s@aio_shaped"),
    Layer("sender.preempt_delay_ms", "ms", "lower",
          "live_p3_speedup_x, wall_s@aio_shaped"),
    # live.aio
    Layer("aio.self_pct", "%", "lower", "wall_s@aio_live"),
    Layer("aio.frames_per_iter", "count", "lower", "wall_s@aio_live"),
    Layer("aio.acks_per_frame", "ratio", "lower", "wall_s@aio_live"),
    Layer("aio.retransmits", "count", "lower", "-", exact=True),
    Layer("aio.us_per_frame", "us", "lower", "wall_s@aio_live"),
    Layer("aio.non_iter_s", "s", "lower", "wall_s@aio_live"),
    Layer("aio.overhead_x", "x", "lower", "wall_s@aio_live"),
    Layer("aio.wire_ms_per_iter", "ms", "lower", "wall_s@aio_shaped"),
    Layer("aio.queue_ms_per_iter", "ms", "lower", "wall_s@aio_shaped"),
    Layer("aio.gate_stall_ms_per_iter", "ms", "lower",
          "live_p3_speedup_x, wall_s@aio_shaped"),
    Layer("aio.gate_stall_ms_per_iter.baseline", "ms", "lower", "-"),
    # repro.kvstore + repro.training
    Layer("numerics.self_pct", "%", "lower", "wall_s@aio_live"),
    Layer("kvstore.apply_mb_per_s", "MB/s", "higher", "wall_s@aio_live"),
    Layer("oracle.iter_ms", "ms", "lower", "-"),
    # workload-specific end-to-end metrics, as seen by the traced run
    Layer("live.iter_ms_p50", "ms", "lower", "-"),
    Layer("live.iter_ms_p90", "ms", "lower", "-"),
    Layer("live.goodput_mb_per_s", "MB/s", "higher", "-"),
    Layer("live.p3_speedup_x", "x", "higher", "-"),
    Layer("sim.p3_speedup_x", "x", "higher", "-"),
    # the traced run itself
    Layer("other.self_pct", "%", "lower", "-"),
    Layer("trace.spans", "count", "lower", "-"),
    Layer("trace.wall_s", "s", "lower", "-"),
    Layer("trace.profile_overhead_x", "x", "lower", "-"),
)
LAYER_NAMES = tuple(layer.name for layer in LAYERS)
EXACT_LAYERS = tuple(layer.name for layer in LAYERS if layer.exact)


def benchmark_doc() -> Dict[str, object]:
    """``BENCHMARK.json`` in the driver's format, from the tables above."""
    per_layer: List[dict] = [
        {"name": layer.name, "unit": layer.unit, "better": layer.better}
        for layer in LAYERS]
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [m._asdict() for m in END_TO_END],
        "per_layer": per_layer,
    }
