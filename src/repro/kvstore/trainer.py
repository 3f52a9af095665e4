"""Data-parallel training through the functional KVStore data plane.

This is the end-to-end functional check of the paper's Section 5.6
claim: training through stores over the baseline's and P3's key tables
must follow *identical* trajectories (P3 reorders transmissions but
never changes values), and both must match the reference harness in
:mod:`repro.training.parallel`.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..training.data import Dataset
from ..training.model import Network
from ..training.optim import StepSchedule
from ..training.parallel import TrainConfig, TrainResult, _epoch_batches
from .store import DistributedStore


def train_with_store(
    network: Network,
    dataset: Dataset,
    store: DistributedStore,
    config: TrainConfig,
) -> TrainResult:
    """Train ``network`` with worker gradients routed through ``store``.

    The store owns the authoritative parameters (its shards run the
    optimizer); the network is refreshed from a pull every iteration,
    exactly as MXNet workers do.
    """
    if store.n_workers != config.n_workers:
        raise ValueError("store and config disagree on n_workers")
    rng = np.random.default_rng(config.seed)
    schedule = StepSchedule(config.lr, config.lr_milestones, config.lr_gamma)
    w = config.n_workers
    shard_bs = config.batch_size // w

    store.init(network.parameters())
    val_acc: List[float] = []
    losses: List[float] = []
    steps_per_epoch = 0
    for epoch in range(config.epochs):
        store.set_lr(schedule.lr_at(epoch, config.epochs))
        epoch_losses: List[float] = []
        batches = _epoch_batches(dataset.n_train, config.batch_size, rng)
        steps_per_epoch = len(batches)
        for batch_idx in batches:
            xb, yb = dataset.x_train[batch_idx], dataset.y_train[batch_idx]
            worker_grads: List[Dict[str, np.ndarray]] = []
            step_losses = []
            for worker in range(w):
                lo, hi = worker * shard_bs, (worker + 1) * shard_bs
                step_losses.append(network.loss_and_grad(xb[lo:hi], yb[lo:hi]))
                worker_grads.append(
                    {k: g.copy() for k, g in network.gradients().items()})
            new_params = store.round(worker_grads)
            network.set_parameters(new_params)
            epoch_losses.append(float(np.mean(step_losses)))
        val_acc.append(network.accuracy(dataset.x_val, dataset.y_val))
        losses.append(float(np.mean(epoch_losses)))
    return TrainResult(
        method="kvstore",
        val_accuracy=np.array(val_acc),
        train_loss=np.array(losses),
        steps_per_epoch=steps_per_epoch,
        config=config,
    )
