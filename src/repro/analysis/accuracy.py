"""Figures 11 and 15: convergence-accuracy experiments.

These run *real* numpy training (not the timing simulator):

* **Figure 11** — P3 (exact synchronous SGD) vs. Deep Gradient
  Compression: the min/max validation-accuracy band per epoch over
  several hyper-parameter settings.
* **Figure 15** — P3 vs. asynchronous SGD on a wall-clock axis.  The
  accuracy trajectories come from the substrate; the wall-clock mapping
  of iterations comes from the event simulator (ASGD iterates faster
  but converges worse).
* :func:`compare_systems` — the same coupling for any list of
  :mod:`repro.cosim` systems (the ledger's ``ext_cosim`` run).

Substitution note (DESIGN.md): ResNet-110/CIFAR-10 is replaced by a
small CNN on a synthetic dataset tuned to the same accuracy regime
(~93% final), and DGC's density is scaled from 0.1% to 1% because the
substitute model is ~200x smaller than ResNet-110.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cosim import SystemSpec
from ..models import resnet110_cifar
from ..models.base import ModelSpec
from ..sim import ClusterConfig, simulate
from ..strategies import asgd as asgd_strategy
from ..strategies import p3 as p3_strategy
from ..training import (
    DGCConfig,
    Dataset,
    Network,
    TrainConfig,
    TrainResult,
    make_dataset,
    small_cnn,
    train_data_parallel,
)
from .series import FigureData


@dataclass(frozen=True)
class HyperSetting:
    """One of the paper's five hyper-parameter settings."""

    lr: float
    momentum: float
    seed: int

    @property
    def label(self) -> str:
        return f"lr={self.lr:g},m={self.momentum:g},seed={self.seed}"


# Five settings in the stable-SGD regime, as in the paper's study
# (outside it plain SGD can diverge while DGC's gradient clipping
# masks the instability, which would invert the comparison).
DEFAULT_SETTINGS: Tuple[HyperSetting, ...] = (
    HyperSetting(0.05, 0.9, 1),
    HyperSetting(0.06, 0.9, 2),
    HyperSetting(0.05, 0.8, 3),
    HyperSetting(0.04, 0.9, 4),
    HyperSetting(0.06, 0.8, 5),
)


def _train_one(dataset: Dataset, setting: HyperSetting, method: str,
               epochs: int, n_workers: int, batch_size: int,
               dgc_density: float) -> TrainResult:
    rng = np.random.default_rng(setting.seed)
    network = small_cnn(rng)
    cfg = TrainConfig(
        n_workers=n_workers, epochs=epochs, batch_size=batch_size,
        lr=setting.lr, momentum=setting.momentum, seed=setting.seed,
    )
    dgc_cfg = DGCConfig(density=dgc_density) if method == "dgc" else None
    return train_data_parallel(network, dataset, cfg, method=method,
                               dgc_config=dgc_cfg)


def fig11_p3_vs_dgc(
    settings: Sequence[HyperSetting] = DEFAULT_SETTINGS,
    epochs: int = 16,
    n_workers: int = 4,
    batch_size: int = 64,
    n_train: int = 2048,
    n_val: int = 512,
    dgc_density: float = 0.01,
    data_seed: int = 0,
) -> FigureData:
    """Min/max validation-accuracy band per epoch, P3 vs DGC.

    Note P3 transmits exact gradients, so "P3" here *is* synchronous SGD
    (as Section 5.6 has it, baseline and P3 follow one training curve).
    """
    dataset = make_dataset(n_train=n_train, n_val=n_val, seed=data_seed)
    curves: Dict[str, List[np.ndarray]] = {"p3": [], "dgc": []}
    finals: Dict[str, List[float]] = {"p3": [], "dgc": []}
    for setting in settings:
        for method, key in (("exact", "p3"), ("dgc", "dgc")):
            res = _train_one(dataset, setting, method, epochs, n_workers,
                             batch_size, dgc_density)
            curves[key].append(res.val_accuracy)
            finals[key].append(res.final_accuracy)
    fig = FigureData(
        figure_id="fig11",
        title="P3 vs DGC validation accuracy band",
        x_label="epoch",
        y_label="validation accuracy",
    )
    epochs_axis = np.arange(1, epochs + 1)
    for key in ("p3", "dgc"):
        stack = np.stack(curves[key])
        fig.add(f"{key}_min", epochs_axis, stack.min(axis=0))
        fig.add(f"{key}_max", epochs_axis, stack.max(axis=0))
        fig.notes[f"{key}_final_mean"] = round(float(np.mean(finals[key])), 4)
        fig.notes[f"{key}_final_worst"] = round(float(np.min(finals[key])), 4)
        fig.notes[f"{key}_final_best"] = round(float(np.max(finals[key])), 4)
    fig.notes["mean_accuracy_drop"] = round(
        float(np.mean(finals["p3"]) - np.mean(finals["dgc"])), 4)
    return fig


def fig15_asgd_vs_p3(
    epochs: int = 16,
    n_workers: int = 4,
    batch_size: int = 64,
    n_train: int = 2048,
    n_val: int = 512,
    lr: float = 0.05,
    seed: int = 3,
    bandwidth_gbps: float = 1.0,
    data_seed: int = 0,
) -> FigureData:
    """Accuracy vs wall-clock for P3 (sync) and ASGD.

    Wall-clock per iteration comes from simulating the paper's setup
    (ResNet-110-sized model, 4 machines, 1 Gbps): ASGD iterates faster
    because workers never wait for each other, but staleness costs final
    accuracy (the ledger rows ``fig15_*`` of :mod:`repro.analysis.claims`).
    """
    dataset = make_dataset(n_train=n_train, n_val=n_val, seed=data_seed)
    setting = HyperSetting(lr, 0.9, seed)
    sync_res = _train_one(dataset, setting, "exact", epochs, n_workers,
                          batch_size, dgc_density=0.01)
    asgd_res = _train_one(dataset, setting, "asgd", epochs, n_workers,
                          batch_size, dgc_density=0.01)

    # Per-iteration wall-clock from the event simulator on the paper's
    # convergence-study model and network.
    sim_model = resnet110_cifar(batch_size=batch_size // n_workers)
    cfg = ClusterConfig(n_workers=n_workers, bandwidth_gbps=bandwidth_gbps)
    sync_time = simulate(sim_model, p3_strategy(), cfg,
                         iterations=5, warmup=2).mean_iteration_time
    asgd_time = simulate(sim_model, asgd_strategy(), cfg,
                         iterations=5, warmup=2).mean_iteration_time

    fig = FigureData(
        figure_id="fig15",
        title="ASGD vs P3: accuracy over wall-clock time",
        x_label="time (s)",
        y_label="validation accuracy",
    )
    steps = sync_res.steps_per_epoch
    sync_axis = np.arange(1, epochs + 1) * steps * sync_time
    asgd_axis = np.arange(1, epochs + 1) * steps * asgd_time
    fig.add("p3", sync_axis, sync_res.val_accuracy)
    fig.add("asgd", asgd_axis, asgd_res.val_accuracy)
    fig.notes["p3_final"] = round(sync_res.final_accuracy, 4)
    fig.notes["asgd_final"] = round(asgd_res.final_accuracy, 4)
    fig.notes["p3_iter_time_s"] = round(sync_time, 4)
    fig.notes["asgd_iter_time_s"] = round(asgd_time, 4)

    target = 0.8
    t_sync = _time_to(sync_res.val_accuracy, sync_axis, target)
    t_asgd = _time_to(asgd_res.val_accuracy, asgd_axis, target)
    if t_sync is not None:
        fig.notes["p3_time_to_80pct_s"] = round(t_sync, 2)
    if t_asgd is not None:
        fig.notes["asgd_time_to_80pct_s"] = round(t_asgd, 2)
    if t_sync is not None and t_asgd is not None and t_sync > 0:
        fig.notes["asgd_to_p3_time_ratio"] = round(t_asgd / t_sync, 2)
    return fig


def compare_systems(
    systems: Sequence[SystemSpec],
    network_factory: Callable[[], Network],
    dataset: Dataset,
    sim_model: ModelSpec,
    cluster: ClusterConfig,
    train_config: TrainConfig,
) -> FigureData:
    """Accuracy over simulated wall-clock, one series per system.

    Each :class:`~repro.cosim.SystemSpec` trains from
    ``network_factory()``'s identical initialization.

    Iteration time is steady-state stationary, so each step's duration is
    drawn from the simulator's measured ones rather than their mean,
    which keeps the jitter.  A series' x is the clock at each epoch's end.  Notes: each system's
    simulated mean iteration time (``<name>_iter_time_s``), final
    accuracy and, where reached, time to 80 % accuracy.
    """
    fig = FigureData(
        figure_id="cosim",
        title=f"Accuracy over simulated wall-clock: {sim_model.name} "
              f"@ {cluster.bandwidth_gbps:g} Gbps",
        x_label="simulated time (s)",
        y_label="validation accuracy",
    )
    for system in systems:
        network = network_factory()
        timing = simulate(sim_model, system.strategy, cluster,
                          iterations=6, warmup=2)
        iter_times = np.asarray(timing.iteration_times, dtype=float)
        result = train_data_parallel(network, dataset, train_config,
                                     method=system.method,
                                     dgc_config=system.dgc_config)
        steps = result.steps_per_epoch
        rng = np.random.default_rng(cluster.seed + 1)
        clock = np.cumsum(rng.choice(iter_times, size=steps * train_config.epochs,
                                     replace=True))
        series = fig.add(system.name, clock[steps - 1::steps], result.val_accuracy)
        fig.notes[f"{system.name}_iter_time_s"] = float(iter_times.mean())
        fig.notes[f"{system.name}_final"] = round(float(series.y[-1]), 4)
        t80 = _time_to(series.y, series.x, 0.8)
        if t80 is not None:
            fig.notes[f"{system.name}_time_to_80pct_s"] = round(t80, 2)
    return fig


def _time_to(acc: np.ndarray, times: np.ndarray, target: float) -> Optional[float]:
    hits = np.nonzero(acc >= target)[0]
    return float(times[hits[0]]) if len(hits) else None
