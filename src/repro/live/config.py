"""Shared configuration of a live cluster run (repro.live).

Every node of a live run — each server shard, aggregator and worker —
receives the same :class:`LiveClusterConfig` and derives its share of
the world from it deterministically: the network replica, the dataset
and the batch schedule.  The key plan (slicing + placement +
priorities) is computed once by the driver
(:meth:`LiveClusterConfig.key_plan`, one table per membership epoch)
and handed to every node, so all of them agree on what key 17 means,
which server owns it and how urgent it is, exactly as MXNet workers
and servers agree through their common KVStore configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ..kvstore.store import BaselineKVStore, DistributedStore, P3Store
from ..placement.keyplan import KeyTable, plan_keys
from ..placement.plan import PlacementSpec, worker_groups
from ..sim.faults import FaultPlan
from ..training.data import Dataset, SyntheticSpec, make_dataset
from ..training.model import Network
from ..training.zoo import mlp
from .membership import MembershipSchedule
from .transport import RetryPolicy

STRATEGIES = ("baseline", "p3")


@dataclass(frozen=True)
class LiveClusterConfig:
    """Deployment + workload parameters of one live run."""

    # Topology
    n_workers: int = 2
    n_servers: int = 2
    host: str = "127.0.0.1"

    # Data plane
    strategy: str = "p3"               # "baseline" | "p3"
    slice_params: int = 5_000          # P3 slice granularity (toy-scaled)

    # Key placement (repro.placement): "round_robin" keeps the store's
    # own plan; "balanced" re-packs keys onto shards by size (splitting
    # hot keys); "two_tier" additionally interposes one aggregator
    # process per ``agg_group_size`` workers in front of the shards.
    placement: str = "round_robin"
    split_factor: float = 2.0
    max_splits: int = 4
    agg_group_size: int = 2

    # Link shaping (None = unshaped loopback)
    rate_bytes_per_s: Optional[float] = 2_500_000.0
    burst_bytes: int = 32_768
    chunk_bytes: int = 8_192

    # Workload (a toy MLP; arrays are this run's "layers")
    in_size: int = 16                  # dataset image side (in_dim = 3*s*s)
    hidden: int = 32
    depth: int = 2
    n_classes: int = 10
    model_seed: int = 3
    data_seed: int = 0
    n_train: int = 128
    n_val: int = 64
    batch_size: int = 16               # global batch, sharded across workers

    # Optimization
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    store_seed: int = 1
    batch_seed: int = 7

    # Schedule
    iterations: int = 5
    warmup: int = 1

    # Emulated per-layer compute (the software stand-in for GPU time;
    # sleeps make the forward pass *gated* on parameter arrival, which
    # is where P3's scheduling advantage physically comes from)
    fwd_layer_s: float = 0.008
    bwd_layer_s: float = 0.016

    # Robustness knobs (PR 1 vocabulary: liveness + bounded waits)
    heartbeat_interval_s: float = 0.25
    connect_timeout_s: float = 15.0
    round_timeout_s: float = 60.0

    # Fault tolerance (reliable transport + chaos injection).  The
    # fault plan is the same substrate-neutral vocabulary the simulator
    # consumes (:mod:`repro.sim.faults`); its ChaosFaults become live
    # :class:`~repro.live.chaos.ChaosChannel` wrappers while timing
    # faults are ignored by the live stack (no tc/cgroup control yet).
    fault_plan: Optional[FaultPlan] = None
    ack_timeout_s: float = 0.25        # Go-Back-N retransmit timer
    retry_backoff: float = 1.6
    retry_max_backoff_s: float = 2.0
    retry_jitter: float = 0.2
    max_retries: int = 12
    peer_timeout_s: float = 10.0       # no frames/acks for this long = dead

    # Elastic membership.  When set, the run's
    # rounds are partitioned into epochs with per-epoch active worker
    # sets (and optional placement overrides); workers JOIN/LEAVE at
    # epoch boundaries via the membership handshake.  ``n_workers`` then
    # bounds the worker *id space* (machine-id layout), not the live
    # count.
    membership: Optional[MembershipSchedule] = None

    # Observability (repro.obs): when True every node records the
    # shared event stream (slice enqueued/sent/preempted/applied, gate
    # opens, round applies) and the driver merges it into
    # :attr:`LiveRunResult.events`.  Observation-only: recording never
    # alters protocol behaviour.
    observe: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.n_workers <= 0 or self.n_servers <= 0:
            raise ValueError("n_workers and n_servers must be positive")
        if self.membership is None and self.batch_size % self.n_workers:
            # Elastic runs divide per epoch instead (validated below).
            raise ValueError("batch_size must be divisible by n_workers")
        if self.iterations <= self.warmup:
            raise ValueError("iterations must exceed warmup")
        if self.rate_bytes_per_s is not None and self.rate_bytes_per_s <= 0:
            raise ValueError("rate_bytes_per_s must be positive or None")
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        for name in ("heartbeat_interval_s", "connect_timeout_s",
                     "round_timeout_s", "peer_timeout_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.heartbeat_interval_s >= self.peer_timeout_s:
            # A quiet but live peer would be declared dead before its
            # first probe could be answered.
            raise ValueError("heartbeat_interval_s must be below "
                             "peer_timeout_s")
        # Placement knobs validate through the subsystem's own spec.
        self.placement_spec()
        # Fail fast on bad retry knobs (RetryPolicy revalidates).
        self.retry_policy(0)
        if self.membership is not None:
            self.membership.validate(self)

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------
    def retry_policy(self, machine: int) -> RetryPolicy:
        """The reliable-transport policy for one machine's senders.

        Seeded per machine so concurrent connections don't jitter their
        retransmissions in lockstep, yet deterministically per run.
        """
        seed = self.fault_plan.seed if self.fault_plan is not None else 0
        return RetryPolicy(ack_timeout_s=self.ack_timeout_s,
                           backoff=self.retry_backoff,
                           max_backoff_s=self.retry_max_backoff_s,
                           max_retries=self.max_retries,
                           jitter=self.retry_jitter,
                           seed=(seed << 8) ^ machine)

    def worker_machine(self, worker_id: int) -> int:
        """Machine id of a worker (sim layout: workers first)."""
        return worker_id

    def server_machine(self, server_id: int) -> int:
        """Machine id of a server shard (after all workers)."""
        return self.n_workers + server_id

    def aggregator_machine(self, group_id: int) -> int:
        """Machine id of a group aggregator (after all servers)."""
        return self.n_workers + self.n_servers + group_id

    # ------------------------------------------------------------------
    # Placement / two-tier topology
    # ------------------------------------------------------------------
    def placement_spec(self) -> PlacementSpec:
        return PlacementSpec(
            policy=self.placement, split_factor=self.split_factor,
            max_splits=self.max_splits,
            group_size=(self.agg_group_size
                        if self.placement == "two_tier" else 0))

    @property
    def two_tier(self) -> bool:
        return self.placement == "two_tier"

    def worker_groups(self) -> Tuple[Tuple[int, ...], ...]:
        if not self.two_tier:
            return ()
        return worker_groups(self.n_workers, self.agg_group_size)

    @property
    def n_groups(self) -> int:
        return len(self.worker_groups())

    def group_of(self, worker_id: int) -> int:
        return worker_id // self.agg_group_size

    @property
    def n_server_clients(self) -> int:
        """How many peers push to each shard: group aggregators under
        two-tier, workers otherwise."""
        return self.n_groups if self.two_tier else self.n_workers

    # ------------------------------------------------------------------
    # Deterministic world building (identical in every process)
    # ------------------------------------------------------------------
    @property
    def in_dim(self) -> int:
        return 3 * self.in_size * self.in_size

    @property
    def worker_batch(self) -> int:
        return self.batch_size // self.n_workers

    def build_network(self) -> Network:
        """The model replica (batchnorm off: exact replica equivalence)."""
        rng = np.random.default_rng(self.model_seed)
        return mlp(rng, in_dim=self.in_dim, hidden=self.hidden,
                   n_classes=self.n_classes, depth=self.depth,
                   batchnorm=False)

    def build_dataset(self) -> Dataset:
        return make_dataset(n_train=self.n_train, n_val=self.n_val,
                            spec=SyntheticSpec(image_size=self.in_size),
                            seed=self.data_seed)

    def key_plan(self) -> List[KeyTable]:
        """The run's key tables, one per membership epoch (a static run
        has one): the same planner call the in-process store makes, on
        the same seed, so the tables match the store's by construction.

        An epoch's placement override re-packs the same keys; the rng is
        reseeded per epoch, as a fresh store's would be.
        """
        sizes = [value.size
                 for value in self.build_network().parameters().values()]
        baseline = self.strategy == "baseline"
        spec = self.placement_spec()
        policies = ([self.placement] if self.membership is None else
                    [e.placement or self.placement
                     for e in self.membership.epochs])
        return [plan_keys(sizes, self.n_servers,
                          slice_params=(None if baseline
                                        else self.slice_params),
                          rng=np.random.default_rng(self.store_seed),
                          spec=replace(spec, policy=policy),
                          n_workers=self.n_workers)
                for policy in policies]

    def build_store(self) -> DistributedStore:
        """The in-process functional store this live run must reproduce
        bit-for-bit."""
        common = dict(n_workers=self.n_workers, n_servers=self.n_servers,
                      lr=self.lr, momentum=self.momentum,
                      weight_decay=self.weight_decay, seed=self.store_seed,
                      placement=self.placement_spec())
        if self.strategy == "baseline":
            return BaselineKVStore(**common)
        return P3Store(slice_params=self.slice_params, **common)

    def build_initialized_store(self) -> DistributedStore:
        store = self.build_store()
        store.init(self.build_network().parameters())
        return store

    def batch_schedule(self) -> List[np.ndarray]:
        """Per-iteration global batch indices, identical in all processes."""
        rng = np.random.default_rng(self.batch_seed)
        return [rng.choice(self.n_train, size=self.batch_size, replace=False)
                for _ in range(self.iterations)]
