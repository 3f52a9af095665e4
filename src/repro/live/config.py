"""Shared configuration of a live cluster run (repro.live).

Every node of a live run — each server shard, aggregator and worker —
receives the same :class:`LiveClusterConfig` and derives its share of
the world from it deterministically: the network replica, the dataset
and the batch schedule.  The key plan (slicing + placement +
priorities) is computed once by the driver
(:meth:`LiveClusterConfig.key_plan`) and handed to every node, so all
of them agree on what key 17 means, which server owns it and how urgent
it is, exactly as MXNet workers and servers agree through their common
KVStore configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..kvstore.store import DistributedStore
from ..placement.keyplan import KeyTable, plan_keys
from ..placement.plan import worker_groups
from ..sim.cluster import ClusterConfig
from ..sim.faults import FaultPlan
from ..strategies import StrategyConfig, get_strategy
from ..training.data import Dataset, SyntheticSpec, make_dataset
from ..training.model import Network
from ..training.zoo import mlp
from .transport import RetryPolicy
from .wire import MAX_FRAME_PAYLOAD

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

    # Key placement (repro.placement), under the simulator's names:
    # "round_robin" keeps the strategy's own plan; "balanced" re-packs
    # keys onto shards by size (splitting hot keys); "two_tier"
    # additionally interposes one aggregator node per ``agg_group_size``
    # workers in front of the shards.
    placement: str = "round_robin"
    placement_split_factor: float = 2.0
    placement_max_splits: int = 4
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
        if self.batch_size % self.n_workers:
            raise ValueError("batch_size must be divisible by n_workers")
        if self.iterations <= self.warmup:
            raise ValueError("iterations must exceed warmup")
        if self.rate_bytes_per_s is not None and self.rate_bytes_per_s <= 0:
            raise ValueError("rate_bytes_per_s must be positive or None")
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if self.chunk_bytes > MAX_FRAME_PAYLOAD:
            # Or every message over the cap fails mid-run in a drain task.
            raise ValueError(f"chunk_bytes {self.chunk_bytes} exceeds "
                             f"MAX_FRAME_PAYLOAD={MAX_FRAME_PAYLOAD}")
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
    # Strategy, placement and two-tier topology
    # ------------------------------------------------------------------
    @property
    def strategy_config(self) -> StrategyConfig:
        """The run's contender, resolved from its name here only: what
        the key plan, the nodes' queues and the simulated twin read."""
        spec = get_strategy(self.strategy)
        return (spec if spec.slice_params is None
                else spec.with_slice(self.slice_params))

    # The placement fields carry the simulator's names, so its reading
    # of them is this config's too.
    placement_spec = ClusterConfig.placement_spec
    two_tier = ClusterConfig.two_tier

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

    def key_plan(self) -> KeyTable:
        """The run's key table, planned here once for the driver, every
        node and the in-process oracle."""
        sizes = [value.size
                 for value in self.build_network().parameters().values()]
        return plan_keys(sizes, self.n_servers,
                         slice_params=self.strategy_config.slice_params,
                         rng=np.random.default_rng(self.store_seed),
                         spec=self.placement_spec(),
                         n_workers=self.n_workers)

    def build_store(self, table: KeyTable) -> DistributedStore:
        """The in-process functional store over ``table``, holding the
        model's initial parameters: the oracle a live run must reproduce
        bit for bit, and the numerics behind each live shard."""
        store = DistributedStore(table, self.n_workers, self.n_servers,
                                 lr=self.lr, momentum=self.momentum,
                                 weight_decay=self.weight_decay)
        store.init(self.build_network().parameters())
        return store

    def batch_schedule(self) -> List[np.ndarray]:
        """Per-iteration global batch indices, identical in all processes."""
        rng = np.random.default_rng(self.batch_seed)
        return [rng.choice(self.n_train, size=self.batch_size, replace=False)
                for _ in range(self.iterations)]
