"""Data-parallel training harness.

Emulates W workers training a shared model, with the gradient-combining
rule pluggable:

* ``"exact"``  — synchronous SGD on the mean of worker gradients.  This
  is what both the MXNet baseline *and* P3 compute: P3 changes only the
  transmission schedule, never the values (the paper's Section 5.6: "the
  baseline and the P3 would follow the same training curve"), so one
  exact-sync run stands for both.
* ``"dgc"``    — Deep Gradient Compression: each worker transmits only
  its top-density accumulated gradients.
* ``"asgd"``   — asynchronous SGD: workers update a shared parameter
  store round-robin from snapshots that are ``n_workers - 1`` updates
  stale (Appendix B.2).
* ``"localsgd"`` — periodic parameter averaging: each worker trains its
  own replica and replicas are averaged every ``local_sgd_steps``
  batches.  Not evaluated in the paper; included as the other classic
  communication-reduction baseline, orthogonal to P3 like DGC.

Workers run sequentially inside one process — numerically identical to
a real synchronous cluster, and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from .data import Dataset
from .dgc import DGCCompressor, DGCConfig, aggregate_sparse
from .model import Network
from .optim import SGD, StepSchedule

SYNC_METHODS = ("exact", "dgc", "asgd", "localsgd")


@dataclass(frozen=True)
class TrainConfig:
    n_workers: int = 4
    epochs: int = 20
    batch_size: int = 64           # global batch, sharded across workers
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_milestones: tuple = (0.5, 0.75)
    lr_gamma: float = 0.1
    local_sgd_steps: int = 4  # averaging period for method="localsgd"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if self.batch_size % self.n_workers:
            raise ValueError("batch_size must be divisible by n_workers")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.local_sgd_steps <= 0:
            raise ValueError("local_sgd_steps must be positive")


@dataclass
class TrainResult:
    method: str
    val_accuracy: np.ndarray       # per epoch
    train_loss: np.ndarray         # per epoch (mean over steps)
    steps_per_epoch: int
    config: TrainConfig

    @property
    def final_accuracy(self) -> float:
        return float(self.val_accuracy[-1])

    @property
    def best_accuracy(self) -> float:
        return float(self.val_accuracy.max())

    def epochs_to_accuracy(self, target: float) -> Optional[int]:
        """First epoch (1-based) reaching ``target`` accuracy, or None."""
        hits = np.nonzero(self.val_accuracy >= target)[0]
        return int(hits[0]) + 1 if len(hits) else None


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator) -> List[np.ndarray]:
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n - batch_size + 1, batch_size)]


def train_data_parallel(
    network: Network,
    dataset: Dataset,
    config: TrainConfig,
    method: str = "exact",
    dgc_config: Optional[DGCConfig] = None,
    epoch_callback: Optional[Callable[[int, float, float], None]] = None,
) -> TrainResult:
    """Train ``network`` in place; returns the accuracy trajectory.

    ``epoch_callback(epoch, val_acc, mean_loss)`` fires after each epoch.
    """
    if method not in SYNC_METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {SYNC_METHODS}")
    rng = np.random.default_rng(config.seed)
    schedule = StepSchedule(config.lr, config.lr_milestones, config.lr_gamma)
    server_opt = SGD(config.lr, config.momentum, config.weight_decay)
    w = config.n_workers
    shard_bs = config.batch_size // w

    if method == "dgc":
        dgc_cfg = dgc_config or DGCConfig()
        compressors = [DGCCompressor(dgc_cfg) for _ in range(w)]
        # Momentum lives in the workers' momentum correction.
        server_opt = SGD(config.lr, momentum=0.0, weight_decay=config.weight_decay)
    if method == "asgd":
        snapshots = [
            {k: v.copy() for k, v in network.parameters().items()} for _ in range(w)
        ]
    if method == "localsgd":
        replicas = [
            {k: v.copy() for k, v in network.parameters().items()} for _ in range(w)
        ]
        local_opts = [SGD(config.lr, config.momentum, config.weight_decay)
                      for _ in range(w)]

    val_acc: List[float] = []
    losses: List[float] = []
    steps_per_epoch = 0
    global_step = 0
    for epoch in range(config.epochs):
        server_opt.lr = schedule.lr_at(epoch, config.epochs)
        if method == "localsgd":
            for opt in local_opts:
                opt.lr = server_opt.lr
        epoch_losses: List[float] = []
        batches = _epoch_batches(dataset.n_train, config.batch_size, rng)
        steps_per_epoch = len(batches)
        for batch_idx in batches:
            xb, yb = dataset.x_train[batch_idx], dataset.y_train[batch_idx]
            if method == "exact":
                loss = _step_exact(network, server_opt, xb, yb, w, shard_bs)
            elif method == "dgc":
                density = dgc_cfg.density_at(epoch)
                loss = _step_dgc(network, server_opt, compressors, xb, yb,
                                 w, shard_bs, density)
            elif method == "asgd":
                loss = _step_asgd(network, server_opt, snapshots, xb, yb,
                                  w, shard_bs)
            else:
                global_step += 1
                average_now = global_step % config.local_sgd_steps == 0
                loss = _step_localsgd(network, local_opts, replicas, xb, yb,
                                      w, shard_bs, average_now)
            epoch_losses.append(loss)
        if method == "localsgd":
            # Evaluate on the averaged model even mid-period.
            _average_into(network, replicas)
        acc = network.accuracy(dataset.x_val, dataset.y_val)
        val_acc.append(acc)
        losses.append(float(np.mean(epoch_losses)))
        if epoch_callback is not None:
            epoch_callback(epoch, acc, losses[-1])
    return TrainResult(
        method=method,
        val_accuracy=np.array(val_acc),
        train_loss=np.array(losses),
        steps_per_epoch=steps_per_epoch,
        config=config,
    )


# ----------------------------------------------------------------------
# Per-step sync rules
# ----------------------------------------------------------------------
def _worker_grads(network: Network, xb: np.ndarray, yb: np.ndarray,
                  worker: int, shard_bs: int) -> tuple:
    lo, hi = worker * shard_bs, (worker + 1) * shard_bs
    loss = network.loss_and_grad(xb[lo:hi], yb[lo:hi])
    return loss, {k: g.copy() for k, g in network.gradients().items()}


def _step_exact(network: Network, opt: SGD, xb: np.ndarray, yb: np.ndarray,
                w: int, shard_bs: int) -> float:
    total: Dict[str, np.ndarray] = {}
    losses = []
    for worker in range(w):
        loss, grads = _worker_grads(network, xb, yb, worker, shard_bs)
        losses.append(loss)
        for k, g in grads.items():
            total[k] = total.get(k, 0.0) + g
    mean_grads = {k: g / w for k, g in total.items()}
    opt.step(network.parameters(), mean_grads)
    return float(np.mean(losses))


def _step_dgc(network: Network, opt: SGD, compressors: List[DGCCompressor],
              xb: np.ndarray, yb: np.ndarray, w: int, shard_bs: int,
              density: float) -> float:
    shapes = {k: v.shape for k, v in network.parameters().items()}
    contributions = []
    losses = []
    for worker in range(w):
        loss, grads = _worker_grads(network, xb, yb, worker, shard_bs)
        losses.append(loss)
        contributions.append(compressors[worker].compress(grads, density))
    summed = aggregate_sparse(contributions, shapes)
    mean_grads = {k: g / w for k, g in summed.items()}
    opt.step(network.parameters(), mean_grads)
    return float(np.mean(losses))


def _average_into(network: Network, replicas: List[Dict[str, np.ndarray]]) -> None:
    """Average replica parameters into the shared network (and back)."""
    mean = {
        k: np.mean([rep[k] for rep in replicas], axis=0)
        for k in replicas[0]
    }
    network.set_parameters(mean)
    for rep in replicas:
        for k in rep:
            rep[k] = mean[k].copy()


def _step_localsgd(network: Network, opts: List[SGD],
                   replicas: List[Dict[str, np.ndarray]],
                   xb: np.ndarray, yb: np.ndarray, w: int, shard_bs: int,
                   average_now: bool) -> float:
    """Each worker takes one local step on its replica; replicas are
    averaged every ``local_sgd_steps`` batches."""
    losses = []
    for worker in range(w):
        network.set_parameters(replicas[worker])
        loss, grads = _worker_grads(network, xb, yb, worker, shard_bs)
        losses.append(loss)
        opts[worker].step(network.parameters(), grads)
        replicas[worker] = {k: v.copy() for k, v in network.parameters().items()}
    if average_now:
        _average_into(network, replicas)
    return float(np.mean(losses))


def _step_asgd(network: Network, opt: SGD, snapshots: List[Dict[str, np.ndarray]],
               xb: np.ndarray, yb: np.ndarray, w: int, shard_bs: int) -> float:
    """One *global* ASGD step per worker: each worker computes its
    gradient on a snapshot taken when it last pulled, then the server
    applies it immediately — so each gradient is up to ``w - 1`` updates
    stale, the canonical staleness of round-robin ASGD."""
    current = network.parameters()
    losses = []
    for worker in range(w):
        live = {k: v.copy() for k, v in current.items()}
        network.set_parameters(snapshots[worker])
        loss, grads = _worker_grads(network, xb, yb, worker, shard_bs)
        losses.append(loss)
        network.set_parameters(live)
        opt.step(network.parameters(), grads)
        snapshots[worker] = {k: v.copy() for k, v in network.parameters().items()}
    return float(np.mean(losses))
