"""Driver: launch, supervise, and harvest a live cluster run (repro.live).

``run_live()`` is the live counterpart of :func:`repro.sim.simulate`: it
forks ``n_servers`` shard processes and ``n_workers`` worker processes,
wires them over localhost TCP, waits with hard deadlines (no hung test
suites), and returns a :class:`LiveRunResult` carrying measured
iteration times, the final parameters (checked identical across every
worker replica), and the per-chunk transmission timeline in the
simulator's schema.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.events import EventRecorder, normalize_timestamps
from ..sim.faults import fault_node, fault_tag, occurrences
from ..sim.trace import UtilizationTrace
from .aggregator import serve_aggregator
from .config import LiveClusterConfig
from .server import serve_shard
from .transport import ChunkRecord, goodput_bytes_per_s, timeline_utilization
from .worker import run_worker


class LiveRunError(Exception):
    """A live run failed to launch, converge, or shut down cleanly."""


def agreed_params(params: Dict[int, Dict[str, np.ndarray]],
                  workers: Sequence[int]) -> Dict[str, np.ndarray]:
    """The final parameters of ``workers``' replicas, which the
    synchronous data plane must have kept bit-identical.

    Finiteness is checked first: parameters that overflowed hold NaN,
    and NaN != NaN would report a training run that blew up (learning
    rate too high for the model) as a transport bug.
    """
    for wid in workers:
        for name, value in params[wid].items():
            if not np.all(np.isfinite(value)):
                raise LiveRunError(
                    f"run diverged numerically: worker {wid}'s {name!r} "
                    f"holds non-finite values (learning rate too high?) "
                    f"— replicas cannot be compared")
    first = workers[0]
    for wid in workers[1:]:
        for name, value in params[wid].items():
            if not np.array_equal(params[first][name], value):
                raise LiveRunError(
                    f"replica divergence: worker {wid} disagrees with "
                    f"worker {first} on {name!r} — the synchronous data "
                    f"plane must keep replicas bit-identical")
    return params[first]


@dataclass
class LiveRunResult:
    """Outcome of one live training run (cf. :class:`repro.sim.RunResult`)."""

    strategy: str
    config: LiveClusterConfig
    final_params: Dict[str, np.ndarray]
    iteration_times: Dict[int, np.ndarray]  # per worker, seconds
    timelines: Dict[int, List[ChunkRecord]] = field(default_factory=dict)
    heartbeat_acks: Dict[int, int] = field(default_factory=dict)
    #: Per-worker reliability/chaos counters (retransmits, acks, CRC
    #: failures, dropped/duplicated/corrupted frames, ...).
    transport_stats: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: Merged repro.obs event stream from every process (populated only
    #: when ``config.observe`` is set), timestamps rebased to t=0 and
    #: sorted; validates against :data:`repro.obs.EVENT_SCHEMA`.
    events: List[dict] = field(default_factory=list)

    @property
    def mean_iteration_time(self) -> float:
        """Steady-state mean across workers (warmup iterations skipped)."""
        skip = self.config.warmup
        per_worker = [float(times[skip:].mean())
                      for times in self.iteration_times.values()]
        return float(np.mean(per_worker))

    @property
    def throughput(self) -> float:
        """Samples/s across the cluster (global batch per iteration)."""
        return self.config.batch_size / self.mean_iteration_time

    def goodput_bytes_per_s(self, worker: int = 0) -> float:
        return goodput_bytes_per_s(self.timelines.get(worker, []))

    def utilization(self, worker: int = 0) -> UtilizationTrace:
        """The worker's TX timeline in the simulator's trace schema."""
        return timeline_utilization(self.timelines.get(worker, []))

    def speedup_over(self, other: "LiveRunResult") -> float:
        return other.mean_iteration_time / self.mean_iteration_time


def _context() -> mp.context.BaseContext:
    # fork is cheap and inherits the imported numpy stack; fall back to
    # spawn where fork is unavailable.
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _dead_children(procs: Sequence[mp.Process]) -> List[str]:
    """Children that exited abnormally, with their exit codes."""
    return [f"{p.name} (exit code {p.exitcode})"
            for p in procs if not p.is_alive() and p.exitcode not in (0, None)]


def _reap_children(procs: Sequence[mp.Process],
                   queues: Sequence = ()) -> None:
    """Terminate, join, and if necessary kill every child; drain queues.

    Idempotent and exception-safe: every child gets its own try/except
    so one uncooperative process can't leave its siblings orphaned, and
    a child that survives ``terminate()`` (e.g. blocked in an
    uninterruptible write) is escalated to ``kill()``.  Queue feeder
    threads are shut down too so no file descriptors leak into the next
    run.  Safe to call on never-started or already-reaped processes.
    """
    for proc in procs:
        try:
            if proc.is_alive():
                proc.terminate()
        except (ValueError, OSError):
            continue  # never started, or already closed
    for proc in procs:
        try:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        except (ValueError, OSError, AssertionError):
            pass
    for q in queues:
        if q is None:
            continue
        try:
            q.close()
            q.cancel_join_thread()
        except (OSError, AttributeError):
            pass


def _get_failfast(q, timeout_s: float, procs: Sequence[mp.Process],
                  what: str):
    """``q.get`` that polls child liveness instead of blocking blind.

    A queue item only ever arrives from a live child, so a child that
    died abnormally means the item never comes: surface its exit code
    immediately (satellite fix: a shard killed before ``accept`` used to
    hang the driver for the full timeout).
    """
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return q.get(timeout=0.2)
        except queue_mod.Empty:
            dead = _dead_children(procs)
            if dead:
                raise LiveRunError(
                    f"{what}: child process died: {', '.join(dead)}")
            if time.monotonic() >= deadline:
                raise LiveRunError(f"{what}: timed out after {timeout_s:.1f}s")


def _fault_events(cfg: LiveClusterConfig, epoch: float,
                  horizon_s: float) -> List[dict]:
    """The driver's FAULT_ON/FAULT_OFF stream for a live run.

    Live fault windows are wall-clock intervals computed by every
    process from the shared plan + epoch, not discrete events, so the
    driver synthesizes the same records the simulator's injector emits —
    from the *same* :func:`repro.sim.faults.occurrences` expansion —
    keeping the cross-substrate event streams comparable.
    """
    if cfg.fault_plan is None or not cfg.fault_plan:
        return []
    recorder = EventRecorder("live")
    from ..obs.events import EventKind
    for occ in occurrences(cfg.fault_plan, max(horizon_s, 1e-6)):
        if occ.start <= horizon_s:
            recorder.emit(EventKind.FAULT_ON, node=fault_node(occ.spec),
                          ts=epoch + occ.start, detail=fault_tag(occ.spec))
        if occ.end is not None and occ.end <= horizon_s:
            recorder.emit(EventKind.FAULT_OFF, node=fault_node(occ.spec),
                          ts=epoch + occ.end, detail=fault_tag(occ.spec))
    return recorder.to_dicts()


def run_live(cfg: LiveClusterConfig, strategy: Optional[str] = None,
             launch_timeout_s: float = 30.0) -> LiveRunResult:
    """Run one full live training job; block until it completes."""
    if cfg.membership is not None:
        raise LiveRunError(
            "elastic membership requires the asyncio substrate — use "
            "repro.live.aio.run_live_aio (the blocking driver's process "
            "topology is fixed at launch)")
    strategy = strategy or cfg.strategy
    ctx = _context()
    port_q = ctx.Queue()
    result_q = ctx.Queue()
    events_q = ctx.Queue() if cfg.observe else None
    queues = [port_q, result_q, events_q]
    # One CLOCK_MONOTONIC origin for the whole run: every process
    # measures fault windows (repro.live.chaos) against it.
    epoch = time.monotonic()
    servers = [
        ctx.Process(target=serve_shard,
                    args=(s, cfg, strategy, port_q, events_q, epoch),
                    daemon=True, name=f"live-shard-{s}")
        for s in range(cfg.n_servers)
    ]
    workers: List[mp.Process] = []
    try:
        for proc in servers:
            proc.start()
        ports: Dict[int, int] = {}
        for _ in range(cfg.n_servers):
            sid, port = _get_failfast(port_q, launch_timeout_s, servers,
                                      "server shards failed to bind")
            ports[sid] = port
        addresses: List[Tuple[str, int]] = [
            (cfg.host, ports[s]) for s in range(cfg.n_servers)]
        if cfg.two_tier:
            # Two-tier topology: interpose one aggregator process per
            # worker group between workers and shards; each worker then
            # talks to exactly one address — its group's aggregator.
            agg_port_q = ctx.Queue()
            queues.append(agg_port_q)
            aggregators = [
                ctx.Process(target=serve_aggregator,
                            args=(g, cfg, strategy, addresses, agg_port_q,
                                  epoch),
                            daemon=True, name=f"live-agg-{g}")
                for g in range(cfg.n_groups)
            ]
            for proc in aggregators:
                proc.start()
            servers = servers + aggregators
            agg_ports: Dict[int, int] = {}
            for _ in range(cfg.n_groups):
                gid, port = _get_failfast(agg_port_q, launch_timeout_s,
                                          servers,
                                          "aggregators failed to bind")
                agg_ports[gid] = port
            worker_addresses = [
                [(cfg.host, agg_ports[cfg.group_of(w)])]
                for w in range(cfg.n_workers)]
        else:
            worker_addresses = [addresses for _ in range(cfg.n_workers)]
        workers = [
            ctx.Process(target=run_worker,
                        args=(w, cfg, strategy, worker_addresses[w],
                              result_q, epoch),
                        daemon=True, name=f"live-worker-{w}")
            for w in range(cfg.n_workers)
        ]
        for proc in workers:
            proc.start()
        deadline = cfg.round_timeout_s * cfg.iterations
        results: Dict[int, dict] = {}
        for _ in range(cfg.n_workers):
            # Workers report errors through the queue; a *shard* death
            # surfaces via its exit code (workers then fail on their
            # peer timeout, but the child's code is the better story).
            res = _get_failfast(
                result_q, deadline, list(servers) + list(workers),
                f"live run (results from {sorted(results)} of "
                f"{cfg.n_workers} workers so far)")
            results[res["worker"]] = res
        errors = {w: r["error"] for w, r in results.items() if "error" in r}
        if errors:
            dead = _dead_children(list(servers) + list(workers))
            detail = f" (dead children: {', '.join(dead)})" if dead else ""
            raise LiveRunError(f"worker failures: {errors}{detail}")
        run_end = time.monotonic()
        events: List[dict] = []
        if events_q is not None:
            for r in results.values():
                events.extend(r.get("events", []))
            events.extend(_fault_events(cfg, epoch, run_end - epoch))
            # Shard streams arrive after clean shutdown; observability is
            # best-effort, so a missing stream degrades, never fails.
            for _ in range(cfg.n_servers):
                try:
                    _sid, shard_events = events_q.get(
                        timeout=launch_timeout_s)
                except queue_mod.Empty:
                    break
                events.extend(shard_events)
            if events:
                # Rebase events AND chunk timelines onto the same zero so
                # a merged trace export lines them up.
                t0 = min(float(e["ts"]) for e in events)
                events = normalize_timestamps(events)
                events.sort(key=lambda e: (e["ts"], e["node"], e["kind"]))
                for r in results.values():
                    r["timeline"] = [
                        dc_replace(c, start=c.start - t0, end=c.end - t0)
                        for c in r["timeline"]]
        for proc in servers + workers:
            proc.join(timeout=launch_timeout_s)
    finally:
        _reap_children(list(servers) + list(workers), queues=queues)

    final = agreed_params({w: r["params"] for w, r in results.items()},
                          range(cfg.n_workers))
    return LiveRunResult(
        strategy=strategy,
        config=cfg,
        final_params=final,
        iteration_times={w: np.asarray(r["iteration_times"])
                         for w, r in results.items()},
        timelines={w: list(r["timeline"]) for w, r in results.items()},
        heartbeat_acks={w: int(r["heartbeat_acks"])
                        for w, r in results.items()},
        transport_stats={w: dict(r.get("transport", {}))
                         for w, r in results.items()},
        events=events,
    )
