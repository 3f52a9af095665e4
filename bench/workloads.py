"""The seven workloads.

Each is a closed-loop batch job of fixed input size, generated from
``--seed`` and driven through public entry points only.  One repetition
(:meth:`Workload.rep`) separates set-up from the measured region with a
:class:`Clock`, records spans when a tracer is on, and returns the
operations it attempted with their outputs; :meth:`Workload.layers` is
the traced run's extra passes (profile, flags, probes) and returns the
per-layer metrics the workload owns.  Names, shapes and sizes are fixed:
later changes cite them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import tempfile
import time
from statistics import median
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence

from . import OUT_DIR, probes
from .attribution import profile_call
from .spans import NULL_TRACER


class Clock:
    """Accumulates one repetition's set-up and measured time."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @contextmanager
    def setup(self) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.setup_s += time.perf_counter() - t0

    @contextmanager
    def measure(self) -> Iterator[None]:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - t0
            self.cpu_s += time.process_time() - c0


class Op(NamedTuple):
    """``count`` operations of one kind, ``failed`` of which failed.
    ``value`` (JSON-native) is what the committed oracle compares."""

    name: str
    count: int
    failed: int
    value: object = None


class Result:
    """What one repetition produced."""

    def __init__(self) -> None:
        self.ops: List[Op] = []
        self.extras: Dict[str, float] = {}   # workload-specific end-to-end
        self.facts: Dict[str, object] = {}   # inputs to layers()


class Workload:
    name = ""
    imports: Sequence[str] = ()
    sizes: Dict[str, dict] = {}

    def rep(self, seed: int, scale: str, clock: Clock, tracer) -> Result:
        raise NotImplementedError

    def layers(self, seed: int, scale: str, tracer, result: Result,
               expected: Optional[dict]) -> Dict[str, float]:
        raise NotImplementedError

    def reference(self, seed: int, scale: str) -> Dict[str, object]:
        """The oracle entry ``--write-expected`` commits for this scale."""
        result = self.rep(seed, scale, Clock(), NULL_TRACER)
        return {op.name: op.value for op in result.ops
                if op.value is not None}

    @staticmethod
    def matches(expected: object, value: object) -> bool:
        return expected == value


def _k(scale: str) -> float:
    return 1.0 if scale == "full" else 0.05


def _scratch_dir() -> str:
    """A throw-away directory inside the checkout (never /tmp: the
    benchmark reads and writes only under its own tree)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR)


def _sim_value(result) -> list:
    """A simulated result's exact identity: throughput repr + events."""
    return [repr(float(result.throughput)), int(result.events_processed)]


# ----------------------------------------------------------------------
# Driving one ClusterSim by hand, with a span per public call
# ----------------------------------------------------------------------
def build_cluster(model, strategy, config, tracer, **cluster_kwargs):
    from repro.sim import ClusterSim
    from repro.sim.cluster import build_plan

    with tracer.span("cluster.build_plan"):
        artifacts = build_plan(model, strategy, config)
    with tracer.span("cluster.init"):
        return ClusterSim(model, strategy, config, artifacts=artifacts,
                          **cluster_kwargs)


def run_cluster(cluster, iterations: int, warmup: int, tracer):
    """``ClusterSim.run`` taken apart; returns (RunResult, engine seconds)."""
    with tracer.span("cluster.start_run"):
        cluster.start_run(iterations, warmup)
    with tracer.span("engine.run") as span:
        t0 = time.perf_counter()
        cluster.sim.run()
        engine_s = time.perf_counter() - t0
    with tracer.span("cluster.collect"):
        result = cluster.collect()
    span.attrs["events"] = result.events_processed
    return result, engine_s


def cluster_span_ms(tracer) -> Dict[str, float]:
    """Plan, wire-up and collect time of every cluster the tracer saw."""
    return {metric: tracer.total(span) * 1e3 for metric, span in (
        ("plan.build_ms", "cluster.build_plan"),
        ("cluster.wireup_ms", "cluster.init"),
        ("cluster.collect_ms", "cluster.collect"))}


@contextmanager
def _engine_flags(env: Dict[str, str]) -> Iterator[None]:
    """Run the body with exactly ``env`` as the engine's feature flags.
    ``Simulator()`` reads them from the environment when constructed."""
    names = ("REPRO_SIM_BATCH", "REPRO_SIM_FASTHEAP")
    saved = {name: os.environ.pop(name, None) for name in names}
    os.environ.update(env)
    try:
        yield
    finally:
        for name in names:
            os.environ.pop(name, None)
            if saved[name] is not None:
                os.environ[name] = saved[name]


def flag_ratios(run_once) -> Dict[str, float]:
    """Engine seconds of ``run_once()`` under each flag, over default.
    Flags are set through the environment only, so a flag a later change
    deletes reads 1.0 instead of breaking the benchmark."""
    walls = {}
    for label, env in (("default", {}),
                       ("batch_off", {"REPRO_SIM_BATCH": "0"}),
                       ("fastheap", {"REPRO_SIM_FASTHEAP": "1"})):
        with _engine_flags(env):
            walls[label] = run_once()
    return {
        "engine.flag_batch_off_x": walls["batch_off"] / walls["default"],
        "engine.flag_fastheap_x": walls["fastheap"] / walls["default"],
    }


# ----------------------------------------------------------------------
# fig7_sweep
# ----------------------------------------------------------------------
class Fig7Sweep(Workload):
    name = "fig7_sweep"
    imports = ("repro.analysis.runner", "repro.analysis.bandwidth",
               "repro.analysis.storage", "repro.sim")
    sizes = {
        "full": dict(model="vgg19", bandwidths=None, iterations=2, warmup=1),
        "tiny": dict(model="toy3", bandwidths=(2.0, 10.0), iterations=3,
                     warmup=1),
    }
    PROFILE_GBPS = 10.0  # the three strategies at this bandwidth

    def _points(self, seed: int, scale: str):
        from repro.analysis.bandwidth import FIG7_GRIDS, default_strategies
        from repro.analysis.runner import SimPoint
        from repro.sim import ClusterConfig

        size = self.sizes[scale]
        bandwidths = size["bandwidths"] or FIG7_GRIDS[size["model"]]
        return [
            SimPoint(size["model"], strategy,
                     ClusterConfig(n_workers=4, bandwidth_gbps=float(bw),
                                   seed=seed),
                     size["iterations"], size["warmup"])
            for strategy in default_strategies() for bw in bandwidths]

    @staticmethod
    def _by_hand(points, tracer) -> list:
        from repro.models import get_model

        results = []
        for p in points:
            with tracer.span("sim.point", strategy=p.strategy.name,
                             gbps=p.config.bandwidth_gbps):
                cluster = build_cluster(get_model(p.model), p.strategy,
                                        p.config, tracer)
                results.append(run_cluster(cluster, p.iterations, p.warmup,
                                           tracer)[0])
        return results

    def rep(self, seed, scale, clock, tracer):
        from repro.analysis.runner import run_grid

        with clock.setup():
            points = self._points(seed, scale)
        with clock.measure():
            if tracer.enabled:
                # Same points, same simulate() steps, one span per step.
                results = self._by_hand(points, tracer)
            else:
                results = run_grid(points, jobs=1, cache=None)
        out = Result()
        out.facts.update(points=points)
        for p, r in zip(points, results):
            out.ops.append(Op(f"{p.strategy.name}@{p.config.bandwidth_gbps:g}",
                              1, 0, _sim_value(r)))
        digest, speedup = self._figure(points, results)
        out.ops.append(Op("figure_sha256", 1, 0, digest))
        out.extras["sim_p3_speedup_x"] = speedup
        return out

    @staticmethod
    def _figure(points, results):
        """Arrange the grid as ``fig7_bandwidth_sweep`` does and digest
        the saved figure; returns (sha256, max p3/baseline ratio)."""
        from repro.analysis.series import FigureData, speedup
        from repro.analysis.storage import save_figure

        fig = FigureData("fig7-bench", "Bandwidth vs throughput",
                         "bandwidth (Gbps)", "throughput per worker")
        series: Dict[str, list] = {}
        for p, r in zip(points, results):
            series.setdefault(p.strategy.name, []).append(
                (p.config.bandwidth_gbps, r.throughput / p.config.n_workers))
        for label, xy in series.items():
            fig.add(label, [x for x, _ in xy], [y for _, y in xy])
        best = float(speedup(fig, over="baseline", of="p3").y.max())
        fig.notes["max_p3_speedup"] = best
        scratch = _scratch_dir()
        try:
            path = save_figure(fig, os.path.join(scratch, "fig7.json"))
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return digest, best

    def layers(self, seed, scale, tracer, result, expected):
        import numpy as np
        from repro.analysis.runner import run_grid
        from repro.models import get_model

        points = result.facts["points"]
        events = sum(s.attrs["events"] for s in tracer.named("engine.run"))
        engine_s = tracer.total("engine.run")
        m = {
            "engine.events": events,
            "engine.events_per_s": events / engine_s,
            "engine.run_share_pct":
                100.0 * engine_s / tracer.total("sim.point"),
            **cluster_span_ms(tracer),
            "sim.p3_speedup_x": result.extras["sim_p3_speedup_x"],
        }
        # Profile the untraced code path itself — run_grid — on the three
        # strategies at one bandwidth.  analysis.self_pct is what the
        # runner adds over driving the same points by hand.
        subset = [p for p in points
                  if p.config.bandwidth_gbps == self.PROFILE_GBPS]
        by_hand_s = sum(
            s.duration for s in tracer.named("sim.point")
            if s.attrs["gbps"] == self.PROFILE_GBPS)
        subset_results, profile = profile_call(
            lambda: run_grid(subset, jobs=1, cache=None))
        m.update(profile.sim_metrics(
            sum(r.events_processed for r in subset_results)))
        m["trace.profile_overhead_x"] = profile.wall_s / by_hand_s
        m["runner.doc_roundtrip_us"] = probes.runner_doc_roundtrip_us(points)
        # The p3 point under each engine flag.
        p3 = next(p for p in subset if p.strategy.name == "p3")

        def run_p3() -> float:
            cluster = build_cluster(get_model(p3.model), p3.strategy,
                                    p3.config, NULL_TRACER)
            return run_cluster(cluster, p3.iterations, p3.warmup,
                               NULL_TRACER)[1]

        m.update(flag_ratios(run_p3))
        rng = np.random.default_rng(seed)
        k = _k(scale)
        m["network.fifo_msgs_per_s"] = \
            probes.network_msgs_per_s(k, rng, "fifo", cancellable=False)
        m["network.prio_msgs_per_s"] = \
            probes.network_msgs_per_s(k, rng, "priority", cancellable=False)
        return m


# ----------------------------------------------------------------------
# scale_ladder
# ----------------------------------------------------------------------
class ScaleLadder(Workload):
    name = "scale_ladder"
    imports = ("repro.sim", "repro.models", "repro.strategies",
               "repro.placement")
    sizes = {
        "full": dict(model="resnet50", workers=(4, 32, 256), two_tier=(64, 8)),
        "tiny": dict(model="toy3", workers=(2, 4, 8), two_tier=(4, 2)),
    }
    ITERATIONS, WARMUP = 1, 0

    def _rungs(self, seed: int, scale: str):
        from repro.sim import ClusterConfig

        size = self.sizes[scale]
        rungs = [(f"workers{n}",
                  ClusterConfig(n_workers=n, bandwidth_gbps=10.0, seed=seed))
                 for n in size["workers"]]
        n, group = size["two_tier"]
        rungs.append((f"workers{n}-two_tier",
                      ClusterConfig(n_workers=n, bandwidth_gbps=10.0,
                                    placement="two_tier",
                                    agg_group_size=group, seed=seed)))
        return rungs

    def rep(self, seed, scale, clock, tracer):
        from repro.models import get_model
        from repro.strategies import get_strategy

        out = Result()
        with clock.setup():
            model = get_model(self.sizes[scale]["model"])
            strategy = get_strategy("p3")
            rungs = self._rungs(seed, scale)
        per_event = {}
        for label, config in rungs:
            # One rung at a time, so peak memory is the widest rung's,
            # as it is for a user; plan + wire-up count as set-up.
            with tracer.span("ladder.rung", rung=label):
                with clock.setup():
                    cluster = build_cluster(model, strategy, config, tracer)
                with clock.measure():
                    r, engine_s = run_cluster(cluster, self.ITERATIONS,
                                              self.WARMUP, tracer)
            per_event[label] = engine_s / r.events_processed
            out.ops.append(Op(label, 1, 0, _sim_value(r)))
        out.facts.update(model=model, strategy=strategy, rungs=rungs,
                         per_event=per_event)
        return out

    def layers(self, seed, scale, tracer, result, expected):
        model, strategy = result.facts["model"], result.facts["strategy"]
        rungs = result.facts["rungs"]
        per_event = result.facts["per_event"]
        events = sum(s.attrs["events"] for s in tracer.named("engine.run"))
        engine_s = tracer.total("engine.run")
        measured_s = engine_s + tracer.total("cluster.start_run") \
            + tracer.total("cluster.collect")
        m = {
            "engine.events": events,
            "engine.events_per_s": events / engine_s,
            "engine.run_share_pct": 100.0 * engine_s / measured_s,
            **cluster_span_ms(tracer),
        }

        def run_rung(config) -> tuple:
            cluster = build_cluster(model, strategy, config, NULL_TRACER)
            r, engine_s = run_cluster(cluster, self.ITERATIONS, self.WARMUP,
                                      NULL_TRACER)
            return r.events_processed, engine_s

        # Per-event cost at the widest plain rung over the narrowest.  The
        # narrowest is tens of milliseconds and ran first in the process,
        # so it is measured again, several times.
        narrow = median(s / ev for ev, s in
                        (run_rung(rungs[0][1]) for _ in range(5)))
        m["engine.scale_cost_x"] = per_event[rungs[2][0]] / narrow
        # Profile the middle rung and the two-tier rung (aggregators).
        chosen = [rungs[1], rungs[3]]
        plain_s = sum(run_rung(config)[1] for _, config in chosen)
        profiled_runs, profile = profile_call(
            lambda: [run_rung(config) for _, config in chosen])
        m.update(profile.sim_metrics(sum(ev for ev, _ in profiled_runs)))
        m["trace.profile_overhead_x"] = \
            sum(s for _, s in profiled_runs) / plain_s
        m.update(flag_ratios(lambda: run_rung(rungs[1][1])[1]))
        k = _k(scale)
        m["engine.chain_events_per_s"] = probes.engine_chain_events_per_s(k)
        m["engine.wave_events_per_s"] = probes.engine_wave_events_per_s(k)
        m["placement.plan_ms"] = probes.placement_plan_ms(seed)
        return m


# ----------------------------------------------------------------------
# warm_cached_sweep
# ----------------------------------------------------------------------
class WarmCachedSweep(Workload):
    name = "warm_cached_sweep"
    imports = ("repro.analysis.runner", "repro.analysis.cache",
               "repro.analysis.warmstart", "repro.sim")
    sizes = {
        "full": dict(models=("inceptionv3", "resnet50"), iterations=100,
                     warmup=2, passes=200),
        "tiny": dict(models=("toy3",), iterations=40, warmup=2, passes=5),
    }
    REL_TOL = 1e-9  # warm start's own contract against a cold run

    def _points(self, seed: int, scale: str):
        from repro.analysis.runner import SimPoint
        from repro.sim import ClusterConfig
        from repro.strategies import get_strategy

        size = self.sizes[scale]
        return [
            SimPoint(model, get_strategy(strategy),
                     ClusterConfig(n_workers=4, bandwidth_gbps=bw, seed=seed),
                     size["iterations"], size["warmup"])
            for model in size["models"]
            for strategy in ("baseline", "slicing", "p3")
            for bw in (8.0, 16.0)]

    @staticmethod
    def _op_name(point) -> str:
        return (f"{point.model}/{point.strategy.name}"
                f"@{point.config.bandwidth_gbps:g}")

    def _sweep(self, points, passes: int, cache_dir: str, clock: Clock,
               tracer):
        """Fill an empty cache, then repeat the identical call ``passes``
        times; returns (first results, stale cached points)."""
        from repro.analysis.cache import SimCache
        from repro.analysis.runner import run_grid

        with clock.setup(), tracer.span("cache.open"):
            cache = SimCache(cache_dir)
        stale = 0
        with clock.measure():
            with tracer.span("run_grid.fill"):
                first = run_grid(points, warm_start=True, cache=cache)
            for _ in range(passes):
                with tracer.span("run_grid.cached"):
                    again = run_grid(points, warm_start=True, cache=cache)
                stale += sum(a != b for a, b in zip(again, first))
        return first, stale

    def rep(self, seed, scale, clock, tracer):
        passes = self.sizes[scale]["passes"]
        with clock.setup():
            points = self._points(seed, scale)
            cache_dir = _scratch_dir()
        try:
            first, stale = self._sweep(points, passes, cache_dir, clock,
                                       tracer)
            # SimCache's documented layout: exact results under
            # <root>/<salt>/, extrapolated ones under <root>/warm/<salt>/.
            root = pathlib.Path(cache_dir)
            warm_files = sum(1 for _ in (root / "warm").rglob("*.json"))
            all_files = sum(1 for _ in root.rglob("*.json"))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        out = Result()
        for p, r in zip(points, first):
            out.ops.append(Op(self._op_name(p), 1, 0,
                              [float(r.throughput), int(r.events_processed)]))
        out.ops.append(Op("cached_points", passes * len(points), stale))
        out.facts.update(points=points, first=first,
                         extrapolated=warm_files,
                         exact=all_files - warm_files)
        return out

    def reference(self, seed, scale):
        """Cold values: every iteration simulated, no warm start."""
        from repro.analysis.runner import run_grid

        points = self._points(seed, scale)
        return {self._op_name(p): [float(r.throughput),
                                   int(r.events_processed)]
                for p, r in zip(points, run_grid(points))}

    @classmethod
    def matches(cls, expected, value):
        (cold, cold_events), (warm, warm_events) = expected, value
        return (cold_events == warm_events
                and abs(warm - cold) <= cls.REL_TOL * abs(cold))

    def layers(self, seed, scale, tracer, result, expected):
        points, first = result.facts["points"], result.facts["first"]
        passes = self.sizes[scale]["passes"]
        rel_err = 0.0
        for p, r in zip(points, first):
            cold = (expected or {}).get(self._op_name(p))
            if cold is not None:
                rel_err = max(rel_err,
                              abs(r.throughput - cold[0]) / abs(cold[0]))
        m = {
            "engine.events": sum(r.events_processed for r in first),
            # First SimCache() of the process: computes the code salt.
            "cache.salt_ms": tracer.named("cache.open")[0].duration * 1e3,
            "warm.extrapolated_share":
                result.facts["extrapolated"] / len(points),
            "warm.fallback_count": result.facts["exact"],
            "warm.max_rel_err": rel_err,
        }
        plain_s = tracer.total("run_grid.fill") \
            + tracer.total("run_grid.cached")
        cache_dir = _scratch_dir()
        try:
            _, profile = profile_call(lambda: self._sweep(
                points, passes, cache_dir, Clock(), NULL_TRACER))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        m.update(profile.self_pct())
        m["engine.run_share_pct"] = profile.cum_share_pct("engine", "run")
        # Points simulated at all while the cache was full: none, if
        # every one of them was served from disk.
        simulated = profile.calls_of("analysis", "execute_point_warm")
        m["cache.hit_share"] = \
            1.0 - (simulated - len(points)) / (passes * len(points))
        m["trace.profile_overhead_x"] = profile.wall_s / plain_s
        cache_dir = _scratch_dir()
        try:
            docs = [dict(p.to_doc(), probe=i)
                    for i in range(max(1, int(40 * _k(scale))))
                    for p in points]
            m.update(probes.cache_op_us(cache_dir, docs))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return m


# ----------------------------------------------------------------------
# tenants8
# ----------------------------------------------------------------------
class Tenants8(Workload):
    name = "tenants8"
    imports = ("repro.tenancy", "repro.sim")
    sizes = {
        "full": dict(tenants=8, model="resnet50", iterations=30, warmup=2,
                     slots=12, stagger_s=0.5),
        "tiny": dict(tenants=3, model="toy3", iterations=6, warmup=1,
                     slots=4, stagger_s=0.002),
    }

    def _build(self, seed: int, scale: str):
        import numpy as np
        from repro.tenancy import JobSpec, MultiJobSim, TenancyConfig

        size = self.sizes[scale]
        jitter = np.random.default_rng(seed).uniform(
            0.0, size["stagger_s"] / 10.0, size["tenants"])
        jobs = [
            JobSpec(name=f"job{i}", tenant=f"tenant{i}", model=size["model"],
                    strategy="p3" if i % 2 == 0 else "baseline", n_workers=2,
                    iterations=size["iterations"], warmup=size["warmup"],
                    weight=float(1 + i % 4),
                    arrival_s=i * size["stagger_s"] + float(jitter[i]),
                    seed=seed)
            for i in range(size["tenants"])]
        config = TenancyConfig(n_slots=size["slots"], bandwidth_gbps=10.0,
                               policy="weighted")
        return MultiJobSim(jobs, config)

    def rep(self, seed, scale, clock, tracer):
        with clock.setup(), tracer.span("tenancy.build"):
            mjs = self._build(seed, scale)
        with clock.measure(), tracer.span("tenancy.run"):
            outcome = mjs.run()
        out = Result()
        order = list(outcome.job_order("admit"))
        rows = {row["job"]: row for row in outcome.slo_table()}
        for job in mjs.jobs:
            row = rows.get(job.name)
            value = None if row is None else [
                repr(float(row[f])) for f in
                ("wait_s", "running_s", "p50", "p95", "p99")]
            out.ops.append(Op(job.name, 1, int(row is None), value))
        out.ops.append(Op("admission_order", 1, 0, order))
        out.facts.update(outcome=outcome,
                         events=mjs.sim.events_processed)
        return out

    def layers(self, seed, scale, tracer, result, expected):
        outcome = result.facts["outcome"]
        run_s = tracer.total("tenancy.run")
        admits = [e for e in outcome.log if e.kind == "admit"]
        completes = [e for e in outcome.log if e.kind == "complete"]
        m = {
            "engine.events": result.facts["events"],
            "engine.events_per_s": result.facts["events"] / run_s,
            "tenancy.admissions": len(admits),
            # The contender set changes at every admission instant and
            # every completion; each change re-shares the fabric.
            "tenancy.reshares": len({e.t for e in admits}) + len(completes),
        }
        mjs = self._build(seed, scale)
        _, profile = profile_call(mjs.run)
        m.update(profile.sim_metrics(mjs.sim.events_processed))
        m["engine.run_share_pct"] = profile.cum_share_pct("engine", "run")
        m["trace.profile_overhead_x"] = profile.wall_s / run_s
        import numpy as np
        k = _k(scale)
        m["network.dynamic_msgs_per_s"] = probes.network_msgs_per_s(
            k, np.random.default_rng(seed), "priority", cancellable=True)
        m["tenancy.sched_us_per_decision"] = \
            probes.tenancy_sched_us_per_decision(k)
        m["shaper.reserve_us"] = probes.shaper_reserve_us(k)
        return m


# ----------------------------------------------------------------------
# obs_traced_sim
# ----------------------------------------------------------------------
class ObsTracedSim(Workload):
    name = "obs_traced_sim"
    imports = ("repro.sim", "repro.obs", "repro.models", "repro.strategies")
    sizes = {"full": dict(model="vgg19"), "tiny": dict(model="toy3")}
    ITERATIONS, WARMUP = 1, 0
    PROFILE_EVENTS = 20_000  # engine events the profiled pass runs

    def _inputs(self, seed: int, scale: str):
        from repro.models import get_model
        from repro.sim import ClusterConfig
        from repro.strategies import get_strategy

        return (get_model(self.sizes[scale]["model"]), get_strategy("p3"),
                ClusterConfig(n_workers=4, bandwidth_gbps=10.0, seed=seed))

    def rep(self, seed, scale, clock, tracer):
        from repro.obs import (SchemaError, export_chrome_trace,
                               metrics_summary, sim_session, validate_events)

        with clock.setup():
            model, strategy, config = self._inputs(seed, scale)
            session = sim_session()
            cluster = build_cluster(model, strategy, config, tracer,
                                    obs=session)
            scratch = _scratch_dir()
        try:
            with clock.measure():
                observed, engine_s = run_cluster(cluster, self.ITERATIONS,
                                                 self.WARMUP, tracer)
                with tracer.span("obs.events"):
                    events = session.events()
                with tracer.span("obs.export_chrome"):
                    trace_path = export_chrome_trace(
                        os.path.join(scratch, "trace.json"),
                        iteration_records=observed.iterations.records,
                        events=events)
                with tracer.span("obs.metrics_summary"):
                    summary = metrics_summary(session)
                with tracer.span("obs.validate"):
                    try:
                        validated = validate_events(events)
                    except SchemaError:
                        validated = -1
            with open(trace_path) as f:
                exported = sum(1 for e in json.load(f)["traceEvents"]
                               if e.get("ph") == "i")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        # Observation must not perturb the run: same point, unobserved.
        plain, plain_engine_s = run_cluster(
            build_cluster(model, strategy, config, NULL_TRACER),
            self.ITERATIONS, self.WARMUP, NULL_TRACER)
        out = Result()
        same = _sim_value(observed) == _sim_value(plain)
        out.ops += [
            Op("observed_equals_unobserved", 1, int(not same),
               _sim_value(observed)),
            Op("chrome_export", 1, int(exported != len(events))),
            Op("metrics_summary", 1,
               int(summary["n_events"] != len(events))),
            Op("schema_validation", 1, int(validated != len(events))),
        ]
        out.facts.update(inputs=(model, strategy, config), engine_s=engine_s,
                         plain_engine_s=plain_engine_s,
                         obs_events=len(events),
                         sim_events=observed.events_processed)
        return out

    def layers(self, seed, scale, tracer, result, expected):
        from repro.obs import sim_session

        f = result.facts
        export_s = sum(tracer.total(name) for name in
                       ("obs.events", "obs.export_chrome",
                        "obs.metrics_summary", "obs.validate"))
        measured_s = f["engine_s"] + export_s \
            + tracer.total("cluster.start_run") \
            + tracer.total("cluster.collect")
        m = {
            "engine.events": f["sim_events"],
            "engine.events_per_s": f["sim_events"] / f["engine_s"],
            "engine.run_share_pct": 100.0 * f["engine_s"] / measured_s,
            **cluster_span_ms(tracer),
            "obs.events": f["obs_events"],
            "obs.us_per_event":
                (f["engine_s"] - f["plain_engine_s"]) / f["obs_events"] * 1e6,
            "obs.sim_overhead_x": f["engine_s"] / f["plain_engine_s"],
            "obs.export_ms": export_s * 1e3,
        }
        # Profile the first PROFILE_EVENTS engine events only: the
        # observer's queue scans are generator resumes, each a profiled
        # call, and the whole run takes 3.5x as long under the profiler.
        model, strategy, config = f["inputs"]

        def started():
            cluster = build_cluster(model, strategy, config, NULL_TRACER,
                                    obs=sim_session())
            cluster.start_run(self.ITERATIONS, self.WARMUP)
            return cluster.sim

        sim = started()
        t0 = time.perf_counter()
        sim.run(max_events=self.PROFILE_EVENTS)
        plain_s = time.perf_counter() - t0
        sim = started()
        _, profile = profile_call(
            lambda: sim.run(max_events=self.PROFILE_EVENTS))
        m.update(profile.sim_metrics(sim.events_processed))
        m["trace.profile_overhead_x"] = profile.wall_s / plain_s
        return m


# ----------------------------------------------------------------------
# aio_live / aio_shaped
# ----------------------------------------------------------------------
class LiveOutcome(NamedTuple):
    run: object  # LiveRunResult, or None when the run raised
    wall_s: float
    cpu_s: float
    oracle_s: float
    failed: bool


class _AioWorkload(Workload):
    imports = ("repro.live", "repro.live.aio", "repro.analysis.calibration")
    strategies: Sequence[str] = ("p3",)
    observe_when_traced = False

    def _config(self, seed: int, scale: str, **overrides):
        from repro.live import LiveClusterConfig

        # lr: hidden=256 at the default 0.05 overflows near iteration 60
        # and run_live_aio then reports a false replica divergence
        # (NaN != NaN); 0.005 keeps every parameter finite.
        fields = dict(n_workers=2, n_servers=1, in_size=16, depth=3,
                      chunk_bytes=8192, lr=0.005, model_seed=3 + seed,
                      data_seed=seed, batch_seed=7 + seed)
        fields.update(self.sizes[scale])
        fields.update(overrides)
        return LiveClusterConfig(**fields)

    def reference(self, seed, scale):
        """Nothing is committed for live runs (BLAS builds may differ in
        the last bit); their oracle is ``run_inprocess``, on the fly."""
        return {}

    @staticmethod
    def _steady_ms(run) -> list:
        """Steady-state iteration times over all workers, in ms."""
        skip = run.config.warmup
        return sorted(float(t) * 1e3 for times in run.iteration_times.values()
                      for t in times[skip:])

    @staticmethod
    def _payload_mb_per_iteration(run) -> float:
        """Payload a worker pushes plus pulls per iteration, in MB."""
        n_params = sum(v.size for v in run.final_params.values())
        return 2 * n_params * 8 / 1e6

    def _run(self, cfg, strategy: str, clock: Clock, tracer):
        """One live run, then its in-process oracle (untimed)."""
        import numpy as np
        from repro.analysis.calibration import run_inprocess
        from repro.live import LiveRunError
        from repro.live.aio import run_live_aio

        run = None
        with clock.measure(), tracer.span("live.run_live_aio",
                                          strategy=strategy) as span:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                run = run_live_aio(cfg, strategy=strategy)
            except LiveRunError as exc:
                span.attrs["error"] = str(exc)
            wall_s = time.perf_counter() - t0
            cpu_s = time.process_time() - c0
        t0 = time.perf_counter()
        truth = run_inprocess(cfg, strategy)
        oracle_s = time.perf_counter() - t0
        failed = run is None or not all(
            np.isfinite(truth[name]).all()
            and np.array_equal(run.final_params[name], truth[name])
            for name in truth)
        if run is not None and tracer.enabled:
            # Iterations run back to back up to the end of the run; the
            # result has their durations, not their absolute starts.
            for worker, times in run.iteration_times.items():
                start = span.end - float(sum(times))
                for i, t in enumerate(times):
                    tracer.add("live.iteration", start, start + float(t),
                               span.id, worker=worker, iteration=i)
                    start += float(t)
        return LiveOutcome(run, wall_s, cpu_s, oracle_s, failed)

    def rep(self, seed, scale, clock, tracer):
        import numpy as np

        observe = tracer.enabled and self.observe_when_traced
        with clock.setup():
            cfg = self._config(seed, scale, observe=observe)
        out = Result()
        runs = {}
        for strategy in self.strategies:
            runs[strategy] = self._run(cfg, strategy, clock, tracer)
            n_ops = cfg.n_workers * cfg.iterations
            out.ops.append(Op(f"worker_iterations.{strategy}", n_ops,
                              n_ops if runs[strategy].failed else 0))
        out.facts.update(cfg=cfg, runs=runs)
        p3 = runs["p3"].run
        if p3 is not None:
            steady = self._steady_ms(p3)
            out.extras["iter_ms_p50"] = float(np.median(steady))
            out.facts["iter_ms_p90"] = float(np.percentile(steady, 90))
        return out

    def _profile_short(self, seed: int, scale: str,
                       iterations: int) -> Dict[str, float]:
        """The p3 job cut to ``iterations``, plain then under the
        profiler: layer shares of a live run and what profiling cost."""
        from repro.live.aio import run_live_aio

        cfg = self._config(seed, scale, iterations=iterations)
        t0 = time.perf_counter()
        run_live_aio(cfg, strategy="p3")
        plain_s = time.perf_counter() - t0
        _, profile = profile_call(lambda: run_live_aio(cfg, strategy="p3"))
        m = profile.self_pct()
        m["trace.profile_overhead_x"] = profile.wall_s / plain_s
        return m

    @staticmethod
    def _aio_counters(outcome: LiveOutcome) -> Dict[str, float]:
        """Frame and ack counts as the workers saw them."""
        from repro.live.transport import RELIABLE_KINDS

        run = outcome.run
        cfg = run.config
        worker_iterations = cfg.n_workers * cfg.iterations
        frames = sum(len(t) for t in run.timelines.values())
        sequenced = sum(1 for t in run.timelines.values() for c in t
                        if c.kind in RELIABLE_KINDS)
        stats = run.transport_stats.values()
        return {
            "aio.frames_per_iter": frames / worker_iterations,
            "aio.acks_per_frame":
                sum(s["acks_received"] for s in stats) / sequenced,
            "aio.retransmits": sum(s["frames_retransmitted"] for s in stats),
            "aio.us_per_frame": outcome.cpu_s / frames * 1e6,
        }


class AioLive(_AioWorkload):
    name = "aio_live"
    sizes = {
        "full": dict(hidden=256, iterations=30, warmup=2,
                     rate_bytes_per_s=None, fwd_layer_s=0.0, bwd_layer_s=0.0),
        "tiny": dict(hidden=16, iterations=4, warmup=1,
                     rate_bytes_per_s=None, fwd_layer_s=0.0, bwd_layer_s=0.0),
    }
    SHORT_ITERATIONS = 10  # observed-vs-not and the profiled run

    def rep(self, seed, scale, clock, tracer):
        out = super().rep(seed, scale, clock, tracer)
        run = out.facts["runs"]["p3"].run
        if run is not None:
            cfg = out.facts["cfg"]
            steady_s = max(float(sum(t[cfg.warmup:]))
                           for t in run.iteration_times.values())
            out.extras["goodput_mb_per_s"] = (
                self._payload_mb_per_iteration(run) * cfg.n_workers
                * (cfg.iterations - cfg.warmup) / steady_s)
        return out

    def layers(self, seed, scale, tracer, result, expected):
        import numpy as np
        from repro.live.aio import run_live_aio

        cfg = result.facts["cfg"]
        outcome = result.facts["runs"]["p3"]
        oracle_iter_ms = outcome.oracle_s / cfg.iterations * 1e3
        busiest_s = max(float(sum(t))
                        for t in outcome.run.iteration_times.values())
        m = {
            "live.iter_ms_p50": result.extras["iter_ms_p50"],
            "live.iter_ms_p90": result.facts["iter_ms_p90"],
            "live.goodput_mb_per_s": result.extras["goodput_mb_per_s"],
            "oracle.iter_ms": oracle_iter_ms,
            "aio.overhead_x": result.extras["iter_ms_p50"] / oracle_iter_ms,
            "aio.non_iter_s": outcome.wall_s - busiest_s,
        }
        m.update(self._aio_counters(outcome))
        # What watching costs a live run: same short job, observed or not.
        short = min(cfg.iterations, self.SHORT_ITERATIONS)
        walls = {}
        for observe in (False, True):
            short_cfg = self._config(seed, scale, iterations=short,
                                     observe=observe)
            t0 = time.perf_counter()
            run_live_aio(short_cfg, strategy="p3")
            walls[observe] = time.perf_counter() - t0
        m["obs.live_overhead_x"] = walls[True] / walls[False]
        m.update(self._profile_short(seed, scale, short))
        k, rng = _k(scale), np.random.default_rng(seed)
        m.update(probes.wire_codec(k, rng))
        m["chunksched.pop_us"] = probes.chunksched_pop_us(k, rng)
        m["outbox.record_ack_us"] = probes.outbox_record_ack_us(k)
        m["sender.goodput_mb_per_s"] = probes.sender_goodput_mb_per_s(k, rng)
        m["kvstore.apply_mb_per_s"] = probes.kvstore_apply_mb_per_s(k, rng)
        return m


class AioShaped(_AioWorkload):
    name = "aio_shaped"
    strategies = ("p3", "baseline")
    observe_when_traced = True  # phase_breakdown needs the event stream
    sizes = {
        "full": dict(hidden=64, iterations=4, warmup=1,
                     rate_bytes_per_s=5e6, fwd_layer_s=0.004,
                     bwd_layer_s=0.008),
        "tiny": dict(hidden=16, iterations=4, warmup=1,
                     rate_bytes_per_s=5e6, fwd_layer_s=0.001,
                     bwd_layer_s=0.002),
    }

    def rep(self, seed, scale, clock, tracer):
        import numpy as np

        out = super().rep(seed, scale, clock, tracer)
        p3, baseline = (out.facts["runs"][s].run for s in self.strategies)
        if p3 is not None and baseline is not None:
            out.extras["live_p3_speedup_x"] = (
                float(np.median(self._steady_ms(baseline)))
                / out.extras["iter_ms_p50"])
        return out

    def layers(self, seed, scale, tracer, result, expected):
        from repro.analysis.calibration import phase_breakdown

        cfg = result.facts["cfg"]
        outcome = result.facts["runs"]["p3"]
        p3, baseline = outcome.run, result.facts["runs"]["baseline"].run
        worker_iterations = cfg.n_workers * cfg.iterations
        phases = {s: phase_breakdown(run.events)
                  for s, run in (("p3", p3), ("baseline", baseline))}
        m = {
            "live.iter_ms_p50": result.extras["iter_ms_p50"],
            "live.iter_ms_p90": result.facts["iter_ms_p90"],
            "live.p3_speedup_x": result.extras["live_p3_speedup_x"],
            "oracle.iter_ms": outcome.oracle_s / cfg.iterations * 1e3,
            "aio.wire_ms_per_iter":
                phases["p3"].wire_s / worker_iterations * 1e3,
            "aio.queue_ms_per_iter":
                phases["p3"].queueing_s / worker_iterations * 1e3,
            "aio.gate_stall_ms_per_iter":
                phases["p3"].gate_stall_s / worker_iterations * 1e3,
            "aio.gate_stall_ms_per_iter.baseline":
                phases["baseline"].gate_stall_s / worker_iterations * 1e3,
        }
        m.update(self._aio_counters(outcome))
        m.update(self._profile_short(seed, scale,
                                     min(cfg.iterations, cfg.warmup + 4)))
        k = _k(scale)
        m["bucket.reserve_us"] = probes.bucket_reserve_us(k)
        m["sender.rate_error_pct"] = probes.sender_rate_error_pct(k)
        m["sender.preempt_delay_ms"] = probes.sender_preempt_delay_ms(k)
        return m


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Fig7Sweep(), ScaleLadder(), WarmCachedSweep(),
                        Tenants8(), ObsTracedSim(), AioLive(), AioShaped())}
