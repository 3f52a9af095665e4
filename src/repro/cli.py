"""Command-line interface: regenerate any paper figure's data.

Examples::

    p3-repro fig7 --model vgg19
    p3-repro fig9 --model sockeye
    p3-repro fig11 --epochs 12
    p3-repro summary
    python -m repro.cli fig12 --model resnet50 --csv out/fig12a.csv
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from . import analysis
from .analysis import FigureData, SimCache, ascii_plot
from .models import available_models, get_model


def _emit(fig: FigureData, args: argparse.Namespace, logx: bool = False) -> None:
    print(fig.summary())
    if args.plot:
        print()
        print(ascii_plot(fig, logx=logx))
    if args.csv:
        path = fig.to_csv(args.csv)
        print(f"\nwrote {path}")


def _run_kwargs(args: argparse.Namespace) -> dict:
    """Keywords of a figure call, from whichever of the run flags the
    subcommand declares: ``--workers`` is ``n_workers=`` everywhere but
    on the subcommands whose axis it is (``fig10``, ``sharding``), which
    do not declare it."""
    kwargs = {}
    if "workers" in args:
        kwargs["n_workers"] = args.workers
    if "iterations" in args:
        kwargs["iterations"] = args.iterations
    if "epochs" in args:
        kwargs["epochs"] = args.epochs
    if "jobs" in args:
        kwargs["jobs"] = args.jobs
    if "cache" in args:
        kwargs["cache"] = SimCache() if args.cache else None
    return kwargs


def _report_cache(kwargs: dict) -> None:
    cache = kwargs.get("cache")
    if cache is not None:
        stats = cache.stats()
        print(f"cache: {stats['hits']} hits, {stats['misses']} misses "
              f"({cache.root})")


def _sensitivity_range(fig: FigureData) -> None:
    print(f"P3 speedup stays within "
          f"[{fig.notes['min_speedup']:.2f}x, {fig.notes['max_speedup']:.2f}x] "
          f"across all knob sweeps")


#: The subcommands that are one figure call share one handler; a row is
#: the driver's name in :mod:`repro.analysis`, whether ``--plot`` draws
#: a log-scale x axis, and what to print after the figure.
FIGURES = {
    "fig7": ("fig7_bandwidth_sweep", False, None),
    "fig8": ("fig8_baseline_utilization", False, None),
    "fig9": ("fig9_p3_utilization", False, None),
    "fig10": ("fig10_scalability", False, None),
    "fig11": ("fig11_p3_vs_dgc", False, None),
    "fig12": ("fig12_slice_size_sweep", True, None),
    "fig13": ("fig13_tensorflow_utilization", False, None),
    "fig14": ("fig14_poseidon_utilization", False, None),
    "fig15": ("fig15_asgd_vs_p3", False, None),
    "shared": ("shared_cluster_sweep", False, None),
    "sensitivity": ("sensitivity_scan", False, _sensitivity_range),
}


def cmd_figure(args: argparse.Namespace) -> None:
    """Run one row of :data:`FIGURES` on the model (where the subcommand
    declares ``--model``) with the run flags it declares."""
    driver, logx, epilogue = FIGURES[args.command]
    kwargs = _run_kwargs(args)
    model = (args.model,) if "model" in args else ()
    fig = getattr(analysis, driver)(*model, **kwargs)
    _emit(fig, args, logx=logx)
    _report_cache(kwargs)
    if epilogue is not None:
        epilogue(fig)


def cmd_models(args: argparse.Namespace) -> None:
    for name in available_models():
        print(get_model(name).describe())
        print()


def cmd_fig4(args: argparse.Namespace) -> None:
    out = analysis.fig4_schedule_comparison()
    for name, o in out.items():
        print(f"{name:10s} iteration={o.iteration_time:6.3f}s "
              f"compute={o.compute_time:5.2f}s stall={o.stall_time:6.3f}s")
    ratio = out["baseline"].stall_time / max(1e-9, out["p3"].stall_time)
    print(f"priority scheduling cuts the inter-iteration delay {ratio:.1f}x")


def cmd_fig5(args: argparse.Namespace) -> None:
    fig = analysis.fig5_param_distribution()
    for label in fig.labels:
        print(f"{label}: {len(fig.get(label).x)} arrays, "
              f"{fig.notes[f'{label}_total_Mparams']:.1f}M params, largest array "
              f"holds {fig.notes[f'{label}_heaviest_share'] * 100:.1f}%")
    if args.csv:
        print(f"wrote {fig.to_csv(args.csv)}")


def cmd_fig6(args: argparse.Namespace) -> None:
    out = analysis.fig6_granularity_comparison()
    for name, o in out.items():
        print(f"{name:18s} iteration={o.iteration_time:6.3f}s stall={o.stall_time:6.3f}s")
    saved = 1 - out["sliced"].stall_time / out["layer_granularity"].stall_time
    print(f"slicing reduces synchronization stall by {saved * 100:.0f}%")


def cmd_bounds(args: argparse.Namespace) -> None:
    """Fluid-limit bounds and crossover bandwidths per model."""
    from .analysis.bounds import (
        baseline_crossover_gbps,
        iteration_bounds,
        p3_crossover_gbps,
    )
    model = get_model(args.model)
    print(f"{model.name}: fluid-limit analysis ({args.workers} workers)")
    print(f"  baseline overlap breaks below "
          f"{baseline_crossover_gbps(model, args.workers):.2f} Gbps")
    print(f"  even full overlap (P3) breaks below "
          f"{p3_crossover_gbps(model, args.workers):.2f} Gbps")
    for bw in (2.0, 4.0, 8.0, 16.0):
        b = iteration_bounds(model, bw, args.workers)
        print(f"  @{bw:4.1f} Gbps: compute {b.compute * 1000:7.1f} ms, "
              f"wire {b.wire * 1000:7.1f} ms -> P3 >= {b.p3_bound * 1000:7.1f} ms, "
              f"baseline >= {b.baseline_bound * 1000:7.1f} ms")


def cmd_allreduce(args: argparse.Namespace) -> None:
    """Extension: P3's principles on ring allreduce."""
    from .allreduce import (
        AllreduceConfig,
        framework_bucketing,
        priority_allreduce,
        simulate_allreduce,
        unsliced_priority_allreduce,
    )
    model = get_model(args.model)
    cfg = AllreduceConfig(n_workers=args.workers)
    base = None
    for strat in (framework_bucketing(), unsliced_priority_allreduce(),
                  priority_allreduce()):
        r = simulate_allreduce(model, strat, cfg, iterations=args.iterations,
                               warmup=1)
        base = base or r
        print(f"{strat.name:25s} {r.throughput / args.workers:8.1f} "
              f"{model.sample_unit}/s/worker ({r.speedup_over(base):.2f}x)")


def _export_sim_trace(result, path, events=None):
    """Write a simulated run's iteration and transmission records (and
    optionally its obs event stream) as a Chrome-tracing JSON file."""
    from .obs import export_chrome_trace
    return export_chrome_trace(
        path,
        iteration_records=result.iterations.records,
        transmissions=(result.utilization.records
                       if result.utilization is not None else None),
        events=events,
        metadata={"model": result.model_name,
                  "strategy": result.strategy_name,
                  "bandwidth_gbps": result.config.bandwidth_gbps})


def _simulate_one(args: argparse.Namespace, obs=None):
    """The single run ``trace``, ``run`` and ``metrics`` look at."""
    from .sim import ClusterConfig, simulate
    from .strategies import get_strategy
    cfg = ClusterConfig(n_workers=args.workers,
                        bandwidth_gbps=args.bandwidth)
    return simulate(get_model(args.model), get_strategy(args.strategy), cfg,
                    iterations=args.iterations, warmup=1,
                    trace_utilization=True, obs=obs)


def _run_metadata(result, args: argparse.Namespace) -> dict:
    return {"model": result.model_name, "strategy": result.strategy_name,
            "bandwidth_gbps": args.bandwidth, "workers": args.workers}


def cmd_trace(args: argparse.Namespace) -> None:
    """Export a simulated run as a chrome://tracing JSON timeline."""
    path = _export_sim_trace(_simulate_one(args), args.out)
    print(f"wrote {path} — open in chrome://tracing or ui.perfetto.dev")


def cmd_run(args: argparse.Namespace) -> None:
    """Simulate one run with the unified observability layer attached."""
    from .obs import (ascii_timeline, export_metrics_summary, metrics_summary,
                      sim_session)
    sess = sim_session()
    result = _simulate_one(args, obs=sess)
    print(f"{result.model_name}/{result.strategy_name}: "
          f"{result.throughput:.1f} samples/s, "
          f"mean iteration {result.mean_iteration_time * 1000:.1f} ms")
    counts = metrics_summary(sess)["event_counts"]
    print("events: " + ", ".join(f"{k}={n}" for k, n in counts.items()))
    if args.trace:
        path = _export_sim_trace(result, args.trace, events=sess.events())
        print(f"wrote {path} — open in chrome://tracing or ui.perfetto.dev")
    if args.metrics:
        path = export_metrics_summary(sess, args.metrics,
                                      metadata=_run_metadata(result, args))
        print(f"wrote {path}")
    if args.plot and result.utilization is not None:
        print()
        print(ascii_timeline(result.utilization, machines=range(args.workers),
                             title=f"{result.model_name} NIC tx"))


def _print_metrics_doc(doc: dict) -> None:
    print(f"schema={doc['schema']} source={doc['source']} "
          f"events={doc['n_events']}")
    for name, snap in sorted(doc["metrics"].items()):
        if snap["type"] == "histogram":
            print(f"  {name:24s} n={snap['count']:<7d} "
                  f"mean={snap['mean']:.3e} p50={snap['p50']:.3e} "
                  f"p95={snap['p95']:.3e} p99={snap['p99']:.3e}")
        else:
            print(f"  {name:24s} {snap['type']}={snap['value']:g}")
    for kind, n in sorted(doc["event_counts"].items()):
        print(f"  event {kind:22s} {n}")


def cmd_metrics(args: argparse.Namespace) -> None:
    """Print a run's metrics summary (counters, p50/p95/p99, events)."""
    import json
    from .obs import metrics_summary, sim_session
    if args.load:
        with open(args.load) as f:
            doc = json.load(f)
    else:
        sess = sim_session()
        result = _simulate_one(args, obs=sess)
        doc = metrics_summary(sess, metadata=_run_metadata(result, args))
    _print_metrics_doc(doc)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
        print(f"wrote {args.out}")


def cmd_robustness(args: argparse.Namespace) -> None:
    """Extension: per-strategy throughput degradation under faults."""
    from .analysis.robustness import degradation_report, robustness_sweep
    kwargs = _run_kwargs(args)
    fig = robustness_sweep(args.model, bandwidth_gbps=args.bandwidth,
                           kinds=tuple(args.kinds.split(",")),
                           seed=args.seed, **kwargs)
    _emit(fig, args)
    _report_cache(kwargs)
    print()
    print(degradation_report(fig))


def _parse_faults(spec: str, seed: int):
    """``--faults drop=0.05,dup=0.02,corrupt=0.01,delay=0.1:0.02`` →
    a one-ChaosFault :class:`FaultPlan` hitting every connection."""
    from .sim.faults import ChaosFault, FaultPlan

    rates = {"drop": 0.0, "dup": 0.0, "corrupt": 0.0}
    delay_rate, delay_s = 0.0, 0.0
    for part in spec.split(","):
        name, _, value = part.partition("=")
        name = name.strip()
        if name == "delay":
            rate_s, _, bound_s = value.partition(":")
            delay_rate = float(rate_s)
            delay_s = float(bound_s) if bound_s else 0.01
        elif name in rates:
            rates[name] = float(value)
        else:
            raise SystemExit(f"unknown fault knob {name!r} in --faults "
                             f"(choose from drop, dup, corrupt, delay)")
    fault = ChaosFault(machine=-1, drop_rate=rates["drop"],
                       dup_rate=rates["dup"], corrupt_rate=rates["corrupt"],
                       delay_rate=delay_rate, delay_s=delay_s)
    return FaultPlan((fault,), seed=seed)


def cmd_live(args: argparse.Namespace) -> None:
    """Run the live (real-socket) transport and calibrate it vs the sim."""
    from .analysis.calibration import calibrate, calibrate_faults
    from .live import LiveClusterConfig
    from .live.aio import run_live_aio

    observe = bool(args.trace or args.metrics)
    plan = (_parse_faults(args.faults, args.fault_seed)
            if args.faults else None)
    cfg = LiveClusterConfig(
        n_workers=args.workers,
        n_servers=args.shards,
        iterations=args.iterations,
        warmup=args.warmup,
        slice_params=args.slice_params,
        rate_bytes_per_s=args.rate_mbps * 1e6 / 8.0,
        batch_size=args.batch,
        observe=observe,
        fault_plan=plan,
        placement=args.placement,
        agg_group_size=args.group_size,
        split_factor=args.split_factor,
    )
    print(f"live cluster: {cfg.n_workers} workers + {cfg.n_servers} shards "
          f"on {cfg.host}, link shaped to {args.rate_mbps:.0f} Mbit/s "
          f"({cfg.placement} placement)")
    if plan is not None:
        # Calibration-under-faults mode: same plan through both
        # substrates, report recovery counters + degradation agreement.
        print(f"  chaos plan: {args.faults} (seed {args.fault_seed})")
        report = calibrate_faults(cfg, plan=plan, strategy="p3")
        print(report.summary())
        totals: dict = {}
        for stats in (report.live_transport_stats or {}).values():
            for name, value in stats.items():
                totals[name] = totals.get(name, 0) + value
        print("  recovery counters (all workers): " +
              ", ".join(f"{k}={v}" for k, v in sorted(totals.items())))
        return
    results = {}
    for strategy in ("baseline", "p3"):
        print(f"  running live {strategy} ({cfg.iterations} iterations) ...")
        results[strategy] = run_live_aio(cfg, strategy=strategy)
    print()
    report = calibrate(cfg, live_results=results, observe=observe)
    print(report.summary())
    goodput = results["p3"].goodput_bytes_per_s(0) * 8 / 1e6
    print(f"  worker-0 p3 tx goodput: {goodput:.1f} Mbit/s")
    if observe:
        from .obs import (export_chrome_trace, export_metrics_summary,
                          session_from_events)
        from .live.transport import timeline_utilization
        res = results["p3"]
        meta = {"strategy": "p3", "workers": cfg.n_workers,
                "rate_mbps": args.rate_mbps}
        if args.trace:
            chunks = [c for tl in res.timelines.values() for c in tl]
            path = export_chrome_trace(
                args.trace, transmissions=timeline_utilization(chunks).records,
                events=res.events, metadata=meta)
            print(f"wrote {path} — open in chrome://tracing or "
                  f"ui.perfetto.dev")
        if args.metrics:
            sess = session_from_events(res.events, source="live")
            path = export_metrics_summary(sess, args.metrics, metadata=meta)
            print(f"wrote {path}")


def cmd_sharding(args: argparse.Namespace) -> None:
    """Placement-policy sweep: round-robin vs balanced vs two-tier."""
    kwargs = _run_kwargs(args)
    sizes = tuple(int(s) for s in args.sizes.split(","))
    placements = tuple(args.placements.split(","))
    fig = analysis.placement_sweep(
        args.model, cluster_sizes=sizes, placements=placements,
        n_servers=args.shards, bandwidth_gbps=args.bandwidth,
        agg_group_size=args.group_size, split_factor=args.split_factor,
        seed=args.seed, measured=args.measured, **kwargs)
    _emit(fig, args, logx=True)
    _report_cache(kwargs)
    for name, value in sorted(fig.notes.items()):
        print(f"  {name} = {value}")


def cmd_report(args: argparse.Namespace) -> None:
    """Measure every paper claim; write the report (or its block in EXPERIMENTS.md)."""
    from .analysis.claims import generate_report, write_report
    kwargs = _run_kwargs(args)
    write_report(generate_report(quick=args.quick, progress=print, **kwargs),
                 args.out)
    _report_cache(kwargs)
    print(f"wrote {args.out}")


def cmd_summary(args: argparse.Namespace) -> None:
    """Headline numbers: the paper-claims ledger's Figure 7 rows."""
    from .analysis.claims import CLAIMS, measure, table
    kwargs, figures = _run_kwargs(args), {}
    rows = [(claim, measure(claim, "full", figures, **kwargs))
            for key, claim in CLAIMS.items() if key.startswith("fig7")]
    _report_cache(kwargs)
    print("\n".join(table(rows)))


def cmd_tenants(args: argparse.Namespace) -> None:
    """Multi-tenant scheduling: admission ledger, shares, SLO report."""
    from .analysis.tenancy import run_tenant_scenario, tenancy_sweep
    if args.sweep:
        fig = tenancy_sweep(
            args.model,
            tenants=[int(s) for s in args.tenant_counts.split(",")],
            policies=[s.strip() for s in args.policies.split(",")],
            bandwidth_gbps=args.bandwidth, workers_per_job=args.workers,
            iterations=args.iterations, warmup=args.warmup, seed=args.seed)
        _emit(fig, args)
        for name, value in sorted(fig.notes.items()):
            print(f"  {name} = {value}")
        return
    weights = ([float(w) for w in args.weights.split(",")]
               if args.weights else None)
    res = run_tenant_scenario(
        args.tenants, policy=args.policy, model=args.model,
        strategy=args.strategy, bandwidth_gbps=args.bandwidth,
        workers_per_job=args.workers, iterations=args.iterations,
        warmup=args.warmup, n_slots=args.slots, weights=weights,
        stagger_s=args.stagger, monitor=args.monitor, seed=args.seed)
    print(res.report())
    print("admission ledger:")
    for ev in res.log:
        print(f"  t={ev.t:>9.3f}s  {ev.kind:<8} {ev.job}")


#: The flags several subcommands share.  A subcommand declares exactly
#: the ones its handler reads (tests/test_cli.py walks the parser to
#: check), so a flag that would be ignored is a parse error instead.
SHARED_FLAGS = {
    "model": dict(choices=available_models()),
    "workers": dict(type=int, default=4),
    "iterations": dict(type=int, default=5),
    "warmup": dict(type=int, default=1),
    "epochs": dict(type=int, default=16),
    "seed": dict(type=int, default=0),
    "strategy": dict(default="p3"),
    "bandwidth": dict(type=float, default=4.0, help="link bandwidth (Gbps)"),
    "shards": dict(type=int),
    "group-size": dict(type=int, help="two-tier aggregation group size"),
    "split-factor": dict(type=float, default=1.5,
                         help="hot-key split threshold (x ideal shard load)"),
    "csv": dict(help="write the series to this CSV path"),
    "plot": dict(action="store_true", help="ASCII plot"),
    "jobs": dict(type=int, default=1,
                 help="worker processes for simulation grids "
                      "(clamped to available CPUs)"),
    "cache": dict(action=argparse.BooleanOptionalAction, default=False,
                  help="reuse simulation results from the on-disk "
                       "cache ($REPRO_CACHE_DIR or .repro-cache)"),
}
RUN = ("workers", "iterations")
EMIT = ("csv", "plot")
GRID = ("jobs", "cache")
ONE_RUN = RUN + ("strategy", "bandwidth")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p3-repro",
        description="Regenerate figures from the P3 paper (MLSys 2019).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help_text: str, flags: Sequence[str] = (),
            **defaults) -> argparse.ArgumentParser:
        """A subcommand with the shared ``flags``, plus one shared flag
        per keyword (``group_size=8`` is ``--group-size``, default 8)."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for dest, default in defaults.items():
            flag = dest.replace("_", "-")
            p.add_argument(f"--{flag}", **{**SHARED_FLAGS[flag],
                                           "default": default})
        for flag in flags:
            p.add_argument(f"--{flag}", **SHARED_FLAGS[flag])
        return p

    add("models", cmd_models, "describe the model zoo")
    add("fig4", cmd_fig4, "toy schedule: aggressive vs priority sync")
    add("fig5", cmd_fig5, "parameter distributions", ("csv",))
    add("fig6", cmd_fig6, "toy granularity comparison")
    add("fig7", cmd_figure, "bandwidth vs throughput", RUN + EMIT + GRID,
        model="resnet50")
    add("fig8", cmd_figure, "baseline network utilization", EMIT,
        model="resnet50")
    add("fig9", cmd_figure, "P3 network utilization", EMIT, model="resnet50")
    add("fig10", cmd_figure, "scalability", ("iterations",) + EMIT + GRID,
        model="resnet50")
    add("fig11", cmd_figure, "P3 vs DGC accuracy", ("epochs",) + EMIT)
    add("fig12", cmd_figure, "slice-size sweep", RUN + EMIT + GRID,
        model="resnet50")
    add("fig13", cmd_figure, "TensorFlow-style utilization", EMIT)
    add("fig14", cmd_figure, "Poseidon WFBP utilization", EMIT)
    add("fig15", cmd_figure, "ASGD vs P3 accuracy over time",
        ("epochs",) + EMIT)
    add("summary", cmd_summary, "peak P3 speedups across models",
        ("iterations",) + GRID)
    add("bounds", cmd_bounds, "fluid-limit bounds and crossovers",
        ("workers",), model="resnet50")
    add("allreduce", cmd_allreduce, "P3 principles on ring allreduce", RUN,
        model="vgg19")
    add("shared", cmd_figure, "shared-cluster contention sweep",
        RUN + EMIT + GRID, model="resnet50")
    add("sensitivity", cmd_figure, "cost-constant robustness scan",
        RUN + EMIT + GRID, model="resnet50")
    robust_p = add("robustness", cmd_robustness,
                   "per-strategy degradation under injected faults",
                   RUN + EMIT + GRID + ("seed",), model="resnet50",
                   bandwidth=16.0)
    robust_p.add_argument("--kinds", default="straggler,link,stall",
                          help="comma list of straggler,link,stall")
    trace_p = add("trace", cmd_trace, "export a chrome://tracing timeline",
                  ONE_RUN, model="resnet50")
    trace_p.add_argument("--out", dest="out", default="trace.json")
    run_p = add("run", cmd_run, "simulate one run with repro.obs attached",
                ONE_RUN + ("plot",), model="resnet50")
    run_p.add_argument("--trace", help="write a chrome://tracing JSON here")
    run_p.add_argument("--metrics", help="write a JSON metrics summary here")
    metrics_p = add("metrics", cmd_metrics,
                    "metrics summary of a run (counters, p50/p95/p99)",
                    ONE_RUN, model="resnet50")
    metrics_p.add_argument("--load", help="pretty-print an existing metrics "
                                          "summary JSON instead of running")
    metrics_p.add_argument("--out", help="also write the summary JSON here")
    live_p = add("live", cmd_live,
                 "run the real-socket live transport and calibrate it "
                 "against the simulator",
                 ("iterations", "warmup", "split-factor"),
                 workers=2, shards=2, group_size=2)
    live_p.add_argument("--batch", type=int, default=16)
    live_p.add_argument("--slice-params", type=int, default=5_000)
    live_p.add_argument("--rate-mbps", type=float, default=20.0,
                        help="token-bucket link rate (software tc qdisc)")
    live_p.add_argument("--placement", default="round_robin",
                        choices=("round_robin", "balanced", "two_tier"),
                        help="shard placement policy (see docs/sharding.md)")
    live_p.add_argument("--faults", metavar="SPEC",
                        help="inject a lossy channel on every connection and "
                             "calibrate degradation sim-vs-live; SPEC is "
                             "comma-separated knobs, e.g. "
                             "drop=0.05,dup=0.02,corrupt=0.01,delay=0.1:0.02")
    live_p.add_argument("--fault-seed", type=int, default=0,
                        help="FaultPlan seed (chaos determinism)")
    live_p.add_argument("--trace", help="record repro.obs events and write "
                                        "a chrome://tracing JSON here")
    live_p.add_argument("--metrics", help="record repro.obs events and "
                                          "write a JSON metrics summary here")
    shard_p = add("sharding", cmd_sharding,
                  "placement-policy sweep (round-robin vs balanced vs "
                  "two-tier) under skewed key sizes",
                  ("iterations", "split-factor", "seed") + EMIT + GRID,
                  model="vgg19", shards=8, bandwidth=10.0, group_size=8)
    shard_p.add_argument("--sizes", default="16,64,256",
                         help="comma list of cluster sizes")
    shard_p.add_argument("--placements",
                         default="round_robin,balanced,two_tier",
                         help="comma list of placement policies")
    shard_p.add_argument("--measured", action="store_true",
                         help="drive placement with per-key loads measured "
                              "from a profiling run (obs event stream) "
                              "instead of static parameter counts")
    tenants_p = add("tenants", cmd_tenants,
                    "multi-tenant scheduler: admission, fair sharing, and "
                    "per-job SLO report (see docs/tenancy.md)",
                    RUN + EMIT + ("warmup", "seed"), model="resnet50",
                    bandwidth=10.0)
    tenants_p.add_argument("--tenants", type=int, default=4,
                           help="number of tenants (one job each)")
    tenants_p.add_argument("--policy", default="weighted",
                           choices=("weighted", "equal", "none"),
                           help="cross-job bandwidth-sharing policy")
    tenants_p.add_argument("--strategy", default="mixed",
                           choices=("mixed", "p3", "baseline"),
                           help="per-job strategy; mixed alternates p3/"
                                "baseline across tenants")
    tenants_p.add_argument("--slots", type=int,
                           help="worker-slot pool size (default: enough "
                                "for all jobs at once)")
    tenants_p.add_argument("--weights",
                           help="comma list of per-tenant weights "
                                "(weighted policy)")
    tenants_p.add_argument("--stagger", type=float, default=0.0,
                           help="seconds between tenant arrivals")
    tenants_p.add_argument("--monitor", action="store_true",
                           help="run with the cross-job invariant monitor")
    tenants_p.add_argument("--sweep", action="store_true",
                           help="tenant-count x policy sweep instead of a "
                                "single scenario")
    tenants_p.add_argument("--tenant-counts", default="2,4,8",
                           help="comma list of tenant counts (--sweep)")
    tenants_p.add_argument("--policies", default="weighted,equal,none",
                           help="comma list of policies (--sweep)")
    report_p = add("report", cmd_report, "full evaluation -> markdown report",
                   GRID)
    report_p.add_argument("--quick", action="store_true")
    report_p.add_argument("--out", dest="out", default="report.md")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
