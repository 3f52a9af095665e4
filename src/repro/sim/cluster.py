"""Cluster assembly and the `simulate()` entry point.

Reproduces the paper's deployment (Section 4.1/5.1): W worker machines,
each colocating a parameter-server shard with the training process,
connected by a full-duplex network whose per-interface rate models the
``tc qdisc`` throttling of Section 5.3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np
# Imported, not reached as ``np.random``: numpy loads that subpackage
# on first attribute access, which would bill it to the first plan.
from numpy.random import default_rng

from ..models.base import ModelSpec
from ..obs.events import EventKind
from ..obs.registry import ObsSession
from ..placement.keyplan import PlacedKey
from ..placement.plan import PlacementPlan, PlacementSpec
from ..strategies.base import PullPolicy, StrategyConfig
from .background import BackgroundTraffic
from .engine import SimulationError, Simulator
from .faults import FaultInjector, FaultPlan
from .network import (
    Channel,
    ChannelObserver,
    Message,
    MsgKind,
    Role,
    Transport,
    gbps_to_bytes_per_s,
    make_queue,
)
from .aggregator import SimAggregator
from .server import SimServerShard
from .trace import IterationTrace, UtilizationTrace
from .worker import SimWorker


@dataclass(frozen=True)
class ClusterConfig:
    """Hardware/deployment parameters of the simulated cluster.

    Defaults model the paper's four-machine P4000 testbed with its
    network throttled to ``bandwidth_gbps``.  ``compute_scale``
    multiplies every model's calibrated compute rate (≈2.0 approximates
    the AWS g3.4xlarge machines of the Section 5.5 scalability study).
    """

    n_workers: int = 4
    n_servers: Optional[int] = None  # defaults to n_workers (Section 5.1 of the paper)
    bandwidth_gbps: float = 10.0
    latency_s: float = 50e-6
    loopback_latency_s: float = 5e-6
    overhead_bytes: int = 64
    per_message_cpu_s: float = 5e-6
    update_bytes_per_s: float = 3e9  # CPU-side aggregation+SGD (ps-lite servers)
    per_update_s: float = 10e-6      # fixed cost per update job (key lookup etc.)
    compute_scale: float = 1.0
    colocate_servers: bool = True    # paper runs one PS shard per worker machine
    straggler_factors: Optional[Tuple[float, ...]] = None  # per-worker slowdown
    background_load: float = 0.0     # fraction of NIC capacity used by other tenants
    background_burst_bytes: int = 1_000_000
    oversubscription: float = 1.0    # core:edge ratio; >1 adds a shared fabric hop
    fault_plan: Optional[FaultPlan] = None  # transient degradation (repro.sim.faults)
    # Key placement policy (repro.placement): "round_robin" keeps the
    # strategy's own plan; "balanced" re-packs keys onto shards by load
    # (splitting hot keys); "two_tier" adds intra-group aggregators of
    # ``agg_group_size`` workers in front of the root shards.
    placement: str = "round_robin"
    placement_split_factor: float = 2.0
    placement_max_splits: int = 4
    agg_group_size: int = 4
    # Optional measured per-key loads — ((key, bytes), ...) from an
    # obs-fed profiling run (repro.placement.loads.measured_demands).
    # When set, non-round-robin placement plans bin-pack over these
    # instead of static parameter counts.  A tuple (not a dict) keeps
    # the config hashable and JSON-round-trippable.
    measured_key_loads: Optional[Tuple[Tuple[int, int], ...]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if self.n_servers is not None:
            if self.n_servers <= 0:
                raise ValueError("n_servers must be positive")
            if self.colocate_servers and self.n_servers > self.n_workers:
                raise ValueError("colocated deployment needs n_servers <= n_workers")
        if self.bandwidth_gbps <= 0:
            raise ValueError("bandwidth_gbps must be positive")
        if self.compute_scale <= 0:
            raise ValueError("compute_scale must be positive")
        if self.straggler_factors is not None:
            if len(self.straggler_factors) != self.n_workers:
                raise ValueError("need one straggler factor per worker")
            if any(f <= 0 for f in self.straggler_factors):
                raise ValueError("straggler factors must be positive")
        if not (0.0 <= self.background_load < 1.0):
            raise ValueError("background_load must be in [0, 1)")
        if self.oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1")
        if self.measured_key_loads is not None:
            for entry in self.measured_key_loads:
                if len(entry) != 2 or entry[1] <= 0:
                    raise ValueError(
                        "measured_key_loads must be ((key, bytes>0), ...) "
                        f"pairs, got {entry!r}")
        # Placement knobs validate through the subsystem's own spec.
        self.placement_spec()

    def placement_spec(self) -> PlacementSpec:
        return PlacementSpec(
            policy=self.placement,
            split_factor=self.placement_split_factor,
            max_splits=self.placement_max_splits,
            group_size=(self.agg_group_size
                        if self.placement == "two_tier" else 0))

    @property
    def two_tier(self) -> bool:
        return self.placement == "two_tier"

    def straggler_factor(self, worker_id: int) -> float:
        if self.straggler_factors is None:
            return 1.0
        return self.straggler_factors[worker_id]

    @property
    def servers(self) -> int:
        return self.n_servers if self.n_servers is not None else self.n_workers


@dataclass
class RunResult:
    """Outcome of one simulated training run."""

    model_name: str
    strategy_name: str
    config: ClusterConfig
    throughput: float           # samples/s across the cluster
    mean_iteration_time: float  # seconds, steady-state, worker 0
    iteration_times: np.ndarray
    iterations: IterationTrace
    utilization: Optional[UtilizationTrace]
    steady_start: float         # sim time when the measured window begins
    steady_end: float
    events_processed: int
    per_worker_throughput: Dict[int, float] = field(default_factory=dict)

    def speedup_over(self, other: "RunResult") -> float:
        """Throughput ratio of this run over ``other``."""
        return self.throughput / other.throughput


#: The kind strings the adapter's rows carry.
_PREEMPTED = EventKind.SLICE_PREEMPTED.value
_SENT = EventKind.SLICE_SENT.value


class _ChannelObsAdapter(ChannelObserver):
    """Feeds one TX channel's activity into a :class:`repro.obs.ObsSession`.

    Emission is one finished row appended to the recorder plus histogram
    bucket increments, with the simulator's own clock as the timestamp —
    no events are scheduled and no randomness is consumed, so an observed
    run stays bit-identical to an unobserved one (tested in
    ``tests/obs/test_observation_only.py``).
    """

    #: Message kinds that correspond to parameter/gradient slices; control
    #: traffic (ACK, NOTIFY, PULL_REQ, NOISE) is not part of the shared
    #: event stream.
    _SLICE_KINDS = (MsgKind.PUSH, MsgKind.PARAM)

    def __init__(self, cluster: "ClusterSim", obs: ObsSession,
                 machine: int) -> None:
        self._sim = cluster.sim
        self._layer_of = cluster.key_layer.get
        self._emit = obs.recorder.sink()
        # Node names by sending worker, formatted on first use.
        self._worker_nodes: Dict[int, str] = {}
        # PUSHes leave workers; PARAMs leave the PS shard on this machine.
        self._server = "server%d" % (
            machine if cluster.config.colocate_servers
            else machine - cluster.n_workers)
        # Under two-tier a group's lead machine also hosts its
        # aggregator (named here by ClusterSim once it exists).  Workers
        # and shards then talk to aggregators only, so whatever is
        # addressed to another role is the aggregator's: its combined
        # PUSHes and its PARAM fan-out.
        self.aggregator: Optional[str] = None
        self._queue_delay = obs.registry.histogram("net.queue_delay_s")
        self._wire = obs.registry.histogram("net.wire_s")
        self._slices = obs.registry.counter("net.slices_sent")
        self._bytes = obs.registry.counter("net.bytes_sent")
        self._preempted = obs.registry.counter("net.preemptions")
        # The slices waiting on the channel, oldest first.  A slice
        # popped from behind the head stays until it surfaces (lazy
        # deletion); ``_popped`` holds the ids of those.
        self._waiting: Deque[Message] = deque()
        self._popped: set = set()

    def _node(self, msg: Message) -> str:
        if (self.aggregator is not None
                and msg.dst_role is not Role.AGGREGATOR):
            return self.aggregator
        if msg.kind is MsgKind.PUSH:
            wid = msg.sender_worker
            node = self._worker_nodes.get(wid)
            if node is None:
                node = self._worker_nodes[wid] = f"worker{wid}"
            return node
        return self._server

    def on_enqueue(self, msg: Message) -> None:
        if msg.kind in self._SLICE_KINDS:
            self._waiting.append(msg)

    def on_pop(self, msg: Message) -> None:
        if msg.kind not in self._SLICE_KINDS:
            return
        waiting = self._waiting
        popped = self._popped
        popped.add(id(msg))
        while waiting and id(waiting[0]) in popped:
            popped.remove(id(waiting.popleft()))
        # A priority queue "preempts" by overtaking: popping msg while an
        # older slice still waits means that slice lost its turn.  Enqueue
        # times never decrease along the deque, so its head is the oldest
        # waiting slice and, among equally old ones, the first enqueued.
        if waiting and waiting[0].enqueue_time < msg.enqueue_time:
            overtaken = waiting[0]
            key = overtaken.key
            self._preempted.inc()
            self._emit((float(self._sim.now), self._node(overtaken),
                        _PREEMPTED, key, -1, overtaken.priority,
                        self._layer_of(key, -1), overtaken.payload_bytes,
                        0.0, 0.0, f"overtaken_by_key={msg.key}"))

    def on_sent(self, msg: Message, start: float, end: float) -> None:
        if msg.kind not in self._SLICE_KINDS:
            return
        queue_s = max(0.0, start - msg.enqueue_time)
        wire_s = end - start
        key = msg.key
        nbytes = msg.payload_bytes
        self._queue_delay.observe(queue_s)
        self._wire.observe(wire_s)
        self._slices.inc()
        self._bytes.inc(nbytes)
        self._emit((float(end), self._node(msg), _SENT, key, -1,
                    msg.priority, self._layer_of(key, -1), nbytes, queue_s,
                    wire_s, msg.kind.value))


@dataclass
class PlanArtifacts:
    """Immutable planning state shared across ClusterSim instances.

    Everything between the strategy's key plan and the per-key lookup
    tables is a pure function of (model, strategy, placement-relevant
    config fields) — see :func:`plan_signature`.  A sweep family whose
    points differ only in perturbable knobs (bandwidth, latency, CPU
    costs) rebuilds none of it (:mod:`repro.analysis.warmstart`).
    Consumers treat every field as read-only.
    """

    signature: tuple
    placed: Tuple[PlacedKey, ...]
    placement_plan: Optional[PlacementPlan]
    groups: Tuple[Tuple[int, ...], ...]
    group_of: Dict[int, int]
    keys: Dict[int, PlacedKey]
    keys_by_layer: Tuple[Tuple[PlacedKey, ...], ...]
    keys_per_layer: Tuple[int, ...]
    keys_by_server: Tuple[Dict[int, PlacedKey], ...]
    push_payload: Dict[int, int]
    key_server_machine: Dict[int, int]
    key_layer: Dict[int, int]


def plan_signature(model: ModelSpec, strategy: StrategyConfig,
                   config: ClusterConfig) -> tuple:
    """The config fields plan artifacts depend on (reuse compatibility)."""
    return (
        model.name, strategy, config.n_workers, config.servers,
        config.colocate_servers, config.placement,
        config.placement_split_factor, config.placement_max_splits,
        config.agg_group_size, config.measured_key_loads, config.seed,
    )


def build_plan(model: ModelSpec, strategy: StrategyConfig,
               config: ClusterConfig) -> PlanArtifacts:
    """Run the key planner once (:func:`repro.placement.plan_keys`)."""
    n_workers = config.n_workers
    loads = config.measured_key_loads
    table = strategy.plan(model, config.servers,
                          default_rng(config.seed),
                          config.placement_spec(), n_workers,
                          dict(loads) if loads is not None else None)
    placed = table.keys
    keys: Dict[int, PlacedKey] = {pk.key: pk for pk in placed}

    # Per-key lookup tables shared by every worker (payloads, shard
    # machines, owning layer).  These are identical across workers,
    # so building them once here instead of per-SimWorker removes
    # O(workers * keys) setup work from every simulated config.
    if config.colocate_servers:
        def server_machine(server_id: int) -> int:
            return server_id
    else:
        def server_machine(server_id: int) -> int:
            return n_workers + server_id
    gs = strategy.gradient_scale
    return PlanArtifacts(
        signature=plan_signature(model, strategy, config),
        placed=placed,
        placement_plan=table.placement,
        groups=table.groups,
        group_of={w: g for g, members in enumerate(table.groups)
                  for w in members},
        keys=keys,
        keys_by_layer=table.by_layer,
        keys_per_layer=tuple(map(len, table.by_layer)),
        keys_by_server=tuple(table.on_server(s)
                             for s in range(config.servers)),
        push_payload={pk.key: max(1, int(pk.bytes * gs)) for pk in placed},
        key_server_machine={pk.key: server_machine(pk.server)
                            for pk in placed},
        key_layer={k: pk.layer_index for k, pk in keys.items()},
    )


class ClusterSim:
    """Wires machines, transport, workers and PS shards together."""

    def __init__(self, model: ModelSpec, strategy: StrategyConfig,
                 config: ClusterConfig, trace_utilization: bool = False,
                 obs: Optional[ObsSession] = None,
                 artifacts: Optional[PlanArtifacts] = None,
                 cycle_hook=None, sim: Optional[Simulator] = None) -> None:
        if config.two_tier and strategy.async_updates:
            # The one combination two-tier cannot mean anything for,
            # refused before anything is built.
            raise SimulationError(
                "two_tier placement requires synchronous updates: ASGD "
                "applies every push on its own, so there is no group "
                "round for an aggregator to combine")
        self.model = model
        self.strategy = strategy
        self.config = config
        self.obs = obs
        # ``sim`` lets several ClusterSims share one event engine
        # (repro.tenancy.MultiJobSim): machine ids stay job-local because
        # each instance owns its Transport and channels, so N jobs
        # compose on a single clock without key/id collisions.
        self.sim = sim if sim is not None else Simulator()
        self.n_workers = config.n_workers
        self.n_servers = config.servers
        # Iteration-boundary hook (worker, iteration, sim-time); the
        # warm-start verifier records cycle marks through it.  None on
        # the normal path — one branch per iteration per worker.
        self.cycle_hook = cycle_hook

        if (artifacts is None
                or artifacts.signature != plan_signature(model, strategy,
                                                         config)):
            artifacts = build_plan(model, strategy, config)
        self.plan_artifacts = artifacts
        self.placed = artifacts.placed
        self.placement_plan = artifacts.placement_plan
        self.two_tier = config.two_tier
        self.groups = artifacts.groups
        self.n_groups = len(artifacts.groups)
        self.group_of = artifacts.group_of
        self.keys = artifacts.keys
        self.keys_by_layer = artifacts.keys_by_layer
        self.keys_per_layer = artifacts.keys_per_layer
        self.keys_by_server = artifacts.keys_by_server
        self.push_payload = artifacts.push_payload
        self.key_server_machine = artifacts.key_server_machine
        self.key_layer = artifacts.key_layer

        self.deferred_pull = strategy.pull_policy is PullPolicy.DEFERRED_PULL
        self.utilization = UtilizationTrace() if trace_utilization else None
        self.iterations = IterationTrace()

        rate = gbps_to_bytes_per_s(config.bandwidth_gbps)
        discipline = strategy.queue_discipline
        self.n_machines = self.n_workers + (0 if config.colocate_servers else self.n_servers)
        fabric = None
        if config.oversubscription > 1.0:
            # Shared core switch: aggregate edge bandwidth divided by the
            # oversubscription ratio, FIFO (switches do not honour P3's
            # end-host priorities).
            fabric = Channel(self.sim, -1, "fabric",
                             rate * self.n_machines / config.oversubscription,
                             make_queue("fifo"), on_complete=lambda _m: None,
                             overhead_bytes=config.overhead_bytes,
                             per_message_cpu_s=0.0)
        self.transport = Transport(self.sim, latency_s=config.latency_s,
                                   loopback_latency_s=config.loopback_latency_s,
                                   fabric=fabric)
        self.tx_channels: List[Channel] = []
        self.rx_channels: List[Channel] = []
        for m in range(self.n_machines):
            tx = Channel(self.sim, m, "tx", rate, make_queue(discipline),
                         on_complete=lambda _m: None,
                         overhead_bytes=config.overhead_bytes,
                         per_message_cpu_s=config.per_message_cpu_s,
                         trace=self.utilization,
                         observer=(_ChannelObsAdapter(self, obs, m)
                                   if obs is not None else None))
            # Receive order is arrival order regardless of strategy; P3's
            # receiver-side prioritization lives in the server work queue.
            rx = Channel(self.sim, m, "rx", rate, make_queue("fifo"),
                         on_complete=lambda _m: None,
                         overhead_bytes=config.overhead_bytes,
                         per_message_cpu_s=config.per_message_cpu_s,
                         trace=self.utilization)
            self.tx_channels.append(tx)
            self.rx_channels.append(rx)

        # Tables every worker or shard reads and none writes, built once
        # here (the per-plan ones come from ``artifacts``) so wire-up stays
        # linear in workers + shards + keys.  Compute durations are plain
        # floats (exact copies of the float64s) for the workers'
        # one-element-at-a-time reads.
        scale = config.compute_scale
        self.fwd_times = [float(t) for t in model.forward_times(scale)]
        self.bwd_times = [float(t) for t in model.backward_times(scale)]
        # A shard's clients: the workers, or under two-tier the group
        # aggregators (a worker then sends every key to its group's).
        if self.two_tier:
            self.client_machines = [self.aggregator_machine(g)
                                    for g in range(self.n_groups)]
            self.group_key_machine = [dict.fromkeys(self.keys, m)
                                      for m in self.client_machines]
        else:
            self.client_machines = [self.worker_machine(w)
                                    for w in range(self.n_workers)]
        self.clients = list(range(len(self.client_machines)))

        self.workers = [SimWorker(self, w) for w in range(self.n_workers)]
        self.servers = [SimServerShard(self, s) for s in range(self.n_servers)]
        self.aggregators: List[SimAggregator] = [
            SimAggregator(self, g) for g in range(self.n_groups)]
        self._agg_by_machine: Dict[int, SimAggregator] = {
            a.machine: a for a in self.aggregators}
        if obs is not None:
            for agg in self.aggregators:
                self.tx_channels[agg.machine].observer.aggregator = agg.name
        # Registration happens after the endpoints exist so each
        # machine's deliver closure binds its worker/shard `on_message`
        # directly instead of re-resolving them per message.
        for m in range(self.n_machines):
            self.transport.register(m, self.tx_channels[m],
                                    self.rx_channels[m],
                                    self._make_deliver(m))
        self._done_count = 0
        self._run_iterations = 0
        self._run_warmup = 0
        self._released = False
        self.background: Optional[BackgroundTraffic] = None
        if config.background_load > 0:
            self.background = BackgroundTraffic(
                self, config.background_load, config.background_burst_bytes)
        self.fault_injector: Optional[FaultInjector] = None
        if config.fault_plan is not None and config.fault_plan:
            self.fault_injector = FaultInjector(self, config.fault_plan)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def worker_machine(self, worker_id: int) -> int:
        return worker_id

    def server_machine(self, server_id: int) -> int:
        if self.config.colocate_servers:
            return server_id
        return self.n_workers + server_id

    def aggregator_machine(self, group_id: int) -> int:
        # Colocated on the group's lead worker machine — the extra hop
        # is free for the lead, one intra-rack RTT for the others.
        return self.worker_machine(self.groups[group_id][0])

    def _make_deliver(self, machine: int):
        # Resolve this machine's endpoints once (workers/servers exist
        # by registration time).  `on_message` stays a per-delivery
        # attribute lookup — tests and the fault tooling patch it on
        # live endpoints, and a pre-bound method would bypass them.
        worker = self.workers[machine] if machine < self.n_workers else None
        if self.config.colocate_servers:
            sid = machine if machine < self.n_servers else None
        else:
            sid = machine - self.n_workers if machine >= self.n_workers else None
        server = self.servers[sid] if sid is not None else None
        agg = self._agg_by_machine.get(machine)
        noise = MsgKind.NOISE
        worker_role = Role.WORKER
        server_role = Role.SERVER
        if agg is not None:
            # Machine hosts a group aggregator alongside its worker (and,
            # when colocated, its shard): dispatch all three roles.
            def deliver(msg: Message) -> None:
                if msg.kind is noise:
                    return  # background tenant traffic terminates here
                role = msg.dst_role
                if role is worker_role:
                    worker.on_message(msg)
                elif role is server_role:
                    server.on_message(msg)
                else:
                    agg.on_message(msg)
        elif self.config.background_load > 0:
            def deliver(msg: Message) -> None:
                if msg.kind is noise:
                    return  # background tenant traffic terminates here
                if msg.dst_role is worker_role:
                    worker.on_message(msg)
                else:
                    server.on_message(msg)
        else:
            # No background tenants configured: NOISE can never reach a
            # deliver endpoint, so skip the per-message kind check.
            def deliver(msg: Message) -> None:
                if msg.dst_role is worker_role:
                    worker.on_message(msg)
                else:
                    server.on_message(msg)
        return deliver

    def release(self) -> None:
        """Cut the reference cycles of a finished run, so reference
        counting frees the cluster as soon as its owner lets go.

        Channels, transport, workers, shards and aggregators point back
        at each other and at this cluster through installed closures,
        routing tables, cached bound methods and ``ctx``; each part drops
        those edges.  Counters, records and queues stay readable
        (``iterations``, channel and shard counters, what
        :meth:`InvariantMonitor.assert_all_final` reads).  Call it only
        once no event of this cluster can fire; a released cluster
        refuses to run again.  Idempotent.
        """
        if self._released:
            return
        self._released = True
        for ch in self.tx_channels + self.rx_channels:
            ch.release()
        self.transport.release()
        for node in (*self.workers, *self.servers, *self.aggregators):
            node.release()
        for part in (self.background, self.fault_injector):
            if part is not None:
                part.release()

    def on_worker_done(self, worker_id: int) -> None:
        self._done_count += 1

    @property
    def all_workers_done(self) -> bool:
        return self._done_count >= self.n_workers

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, iterations: int, warmup: int = 2,
            max_events: Optional[int] = None) -> RunResult:
        """Simulate ``iterations`` full iterations per worker and measure
        throughput over the last ``iterations - warmup`` of them."""
        self.start_run(iterations, warmup)
        self.sim.run(max_events=max_events)
        return self.collect()

    def start_run(self, iterations: int, warmup: int = 2) -> None:
        """Schedule the run's initial events without draining the engine.

        Multi-job composition (:class:`repro.tenancy.MultiJobSim`) starts
        each admitted job on a *shared* engine — possibly mid-drain, at
        ``sim.now > 0`` — and calls :meth:`collect` once its workers
        finish.  ``run`` is exactly ``start_run`` + ``sim.run`` +
        ``collect``.
        """
        if self._released:
            raise SimulationError(
                f"this ClusterSim (model={self.model.name}, "
                f"strategy={self.strategy.name}) finished its run and was "
                "released; build a new one to run again")
        if iterations <= warmup:
            raise ValueError("iterations must exceed warmup")
        self._run_iterations = iterations
        self._run_warmup = warmup
        for w in self.workers:
            w.start(iterations)
        if self.background is not None:
            self.background.start()
        if self.fault_injector is not None:
            self.fault_injector.start()

    def collect(self) -> RunResult:
        """Assemble the :class:`RunResult` after the engine has drained
        (or after :attr:`all_workers_done` on a shared engine).  A
        drained engine can fire nothing more of this cluster's, so the
        cluster then releases itself (:meth:`release`); on a shared
        engine its owner releases it once that engine drains."""
        warmup = self._run_warmup
        if self._done_count < self.n_workers:
            stuck = [w.wid for w in self.workers if not w.done]
            raise SimulationError(
                f"simulation stalled: workers {stuck} incomplete "
                f"(strategy={self.strategy.name}, model={self.model.name}); "
                f"likely a protocol deadlock"
            )
        if self.obs is not None:
            snap = self.sim.snapshot()
            for name, value in snap.items():
                self.obs.registry.gauge(f"engine.{name}").set(float(value))
        per_worker: Dict[int, float] = {}
        for w in range(self.n_workers):
            times = self.iterations.iteration_times(worker=w, skip=warmup)
            per_worker[w] = self.model.batch_size / float(times.mean())
        iter_times = self.iterations.iteration_times(worker=0, skip=warmup)
        mean_t = float(iter_times.mean())
        recs = self.iterations.worker_iterations(0)
        steady_start = recs[warmup].forward_start
        steady_end = recs[-1].end
        if not self.sim.pending:
            self.release()
        return RunResult(
            model_name=self.model.name,
            strategy_name=self.strategy.name,
            config=self.config,
            throughput=float(sum(per_worker.values())),
            mean_iteration_time=mean_t,
            iteration_times=iter_times,
            iterations=self.iterations,
            utilization=self.utilization,
            steady_start=steady_start,
            steady_end=steady_end,
            events_processed=self.sim.events_processed,
            per_worker_throughput=per_worker,
        )


def simulate(
    model: ModelSpec,
    strategy: StrategyConfig,
    config: Optional[ClusterConfig] = None,
    iterations: int = 6,
    warmup: int = 2,
    trace_utilization: bool = False,
    obs: Optional[ObsSession] = None,
    artifacts: Optional[PlanArtifacts] = None,
) -> RunResult:
    """Run one distributed-training simulation end to end.

    This is the primary entry point of the simulation substrate::

        from repro import models, strategies, simulate
        result = simulate(models.vgg19(), strategies.p3(),
                          ClusterConfig(bandwidth_gbps=15))
        print(result.throughput)

    Pass an :class:`repro.obs.ObsSession` as ``obs`` to collect the
    shared event stream and metrics; observation is guaranteed not to
    perturb the simulated timeline.
    """
    cfg = config or ClusterConfig()
    sim = ClusterSim(model, strategy, cfg, trace_utilization=trace_utilization,
                     obs=obs, artifacts=artifacts)
    return sim.run(iterations=iterations, warmup=warmup)
