"""Sim-vs-live calibration (repro.analysis.calibration).

The live transport (:mod:`repro.live`) makes two falsifiable promises:

1. **Value fidelity** — final parameters from a live run are
   *bit-identical* to the in-process functional store's for the same
   model/seed (the paper's Section 5.6 convergence-neutrality, now
   across socket boundaries).
2. **Timing fidelity** — on a token-bucket-shaped link, the measured
   live P3-vs-baseline speedup agrees in sign (within a documented
   tolerance, see :attr:`CalibrationReport.tolerance`) with what
   :mod:`repro.sim` predicts for an equivalently configured cluster.

``calibrate()`` runs both checks end to end and returns a
:class:`CalibrationReport`.

Mapping a live config into the simulator
----------------------------------------
* Each named parameter array of the live model becomes one
  :class:`LayerSpec` (that is also the KVStore key granularity).
* The emulated per-layer compute sleeps fix the compute-bound
  throughput: ``samples_per_sec = worker_batch / (n_layers * (fwd + bwd))``
  with ``forward_fraction = fwd / (fwd + bwd)``.
* The live wire carries fp64 (8 B/param) while the simulator's byte
  accounting uses the paper's fp32 (4 B/param), so the simulated
  bandwidth is ``rate_bytes_per_s * (4/8)`` — equal transfer *time* for
  equal parameter counts.
* Live shards are separate nodes with their own shapers, i.e. their
  own NICs: ``colocate_servers=False``.
* Topology and placement fields carry over under the names both configs
  share, and the twin runs the live run's ``strategy_config``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace as dc_replace
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..live.config import LiveClusterConfig
from ..live.result import LiveRunResult
from ..live.wire import WIRE_BYTES_PER_PARAM
from ..models.base import BYTES_PER_PARAM, LayerSpec, ModelSpec
from ..obs import ObsSession, sim_session
from ..sim.cluster import ClusterConfig, simulate
from ..sim.faults import FaultPlan

#: Documented default tolerance for sign agreement: live and simulated
#: speedups must lie on the same side of 1.0, or both within this band
#: of 1.0 (measurement noise on a loopback link is real; the claim is
#: about the *direction* of the effect, not its third decimal).
DEFAULT_TOLERANCE = 0.15


def run_inprocess(cfg: LiveClusterConfig,
                  strategy: Optional[str] = None) -> Dict[str, np.ndarray]:
    """The live run's ground truth: same loop through the in-process store.

    Replicates the live workers' schedule exactly — same batch indices,
    same per-worker gradient shards, same store — without any sockets,
    and returns the final parameters.
    """
    cfg = dc_replace(cfg, strategy=strategy or cfg.strategy)
    net = cfg.build_network()
    dataset = cfg.build_dataset()
    store = cfg.build_store(cfg.key_plan())
    per = cfg.worker_batch
    for idx in cfg.batch_schedule():
        worker_grads = []
        for rank in range(cfg.n_workers):
            lo, hi = rank * per, (rank + 1) * per
            net.loss_and_grad(dataset.x_train[idx][lo:hi],
                              dataset.y_train[idx][lo:hi])
            worker_grads.append({name: g.copy()
                                 for name, g in net.gradients().items()})
        net.set_parameters(store.round(worker_grads))
    return net.parameters()


def live_model_spec(cfg: LiveClusterConfig) -> ModelSpec:
    """Describe the live workload as a simulator :class:`ModelSpec`."""
    params = cfg.build_network().parameters()
    layers = tuple(LayerSpec(name, int(v.size), 1.0)
                   for name, v in params.items())
    compute_s = len(layers) * (cfg.fwd_layer_s + cfg.bwd_layer_s)
    return ModelSpec(
        name="live_mlp",
        layers=layers,
        batch_size=cfg.worker_batch,
        samples_per_sec=cfg.worker_batch / compute_s,
        forward_fraction=cfg.fwd_layer_s / (cfg.fwd_layer_s + cfg.bwd_layer_s),
    )


def sim_bandwidth_gbps(cfg: LiveClusterConfig) -> float:
    """Simulated link rate giving equal transfer time per parameter."""
    if cfg.rate_bytes_per_s is None:
        raise ValueError("calibration needs a shaped link "
                         "(rate_bytes_per_s is None)")
    effective = cfg.rate_bytes_per_s * BYTES_PER_PARAM / WIRE_BYTES_PER_PARAM
    return effective * 8.0 / 1e9


def _simulate_twin(cfg: LiveClusterConfig,
                   plan: Optional[FaultPlan] = None,
                   obs: Optional[ObsSession] = None) -> float:
    """Mean simulated iteration time of the live config's twin cluster.

    The one place the live → ``ClusterConfig`` mapping (module
    docstring) is written; ``plan`` is the only thing its callers vary.
    """
    sim_names = {f.name for f in fields(ClusterConfig)}
    shared = {f.name: getattr(cfg, f.name) for f in fields(cfg)
              if f.name in sim_names}
    shared.update(bandwidth_gbps=sim_bandwidth_gbps(cfg),
                  colocate_servers=False, seed=cfg.store_seed,
                  fault_plan=plan)
    result = simulate(live_model_spec(cfg), cfg.strategy_config,
                      ClusterConfig(**shared),
                      iterations=max(cfg.iterations, cfg.warmup + 2),
                      warmup=cfg.warmup, obs=obs)
    return result.mean_iteration_time


def predict_sim(cfg: LiveClusterConfig,
                obs_sessions: Optional[Dict[str, ObsSession]] = None
                ) -> Tuple[float, float]:
    """Simulator-predicted mean iteration times (baseline_s, p3_s).

    Pass an empty dict as ``obs_sessions`` to additionally receive each
    strategy's :class:`repro.obs.ObsSession` (keys ``"baseline"`` and
    ``"p3"``) carrying the shared event stream, from which
    :func:`phase_breakdown` derives per-phase time.
    """
    times = {}
    for name in ("baseline", "p3"):
        sess = sim_session() if obs_sessions is not None else None
        times[name] = _simulate_twin(dc_replace(cfg, strategy=name),
                                     obs=sess)
        if obs_sessions is not None:
            obs_sessions[name] = sess
    return times["baseline"], times["p3"]


@dataclass(frozen=True)
class PhaseBreakdown:
    """Where a run's time went, summed over the whole run.

    Derived from the shared :mod:`repro.obs` event stream with the SAME
    definitions for both substrates, so a simulated and a live breakdown
    are directly comparable:

    * ``compute_s`` — emulated compute (layer times x iterations),
      supplied by the caller because compute is not an event;
    * ``wire_s`` — Σ ``wire_s`` over ``slice_sent`` (serialization time
      actually on the wire);
    * ``queueing_s`` — Σ ``queue_s`` over ``slice_sent`` (enqueue-to-
      completion time not explained by the slice's own wire occupancy);
    * ``gate_stall_s`` — Σ ``queue_s`` over ``forward_gate_open`` (time
      forward passes spent blocked on parameter arrival — the quantity
      P3 exists to shrink).
    """

    compute_s: float
    wire_s: float
    queueing_s: float
    gate_stall_s: float

    def row(self) -> str:
        return (f"compute={self.compute_s:7.3f}s  wire={self.wire_s:7.3f}s  "
                f"queueing={self.queueing_s:7.3f}s  "
                f"gate-stall={self.gate_stall_s:7.3f}s")


def phase_breakdown(events: Iterable[Dict[str, object]],
                    compute_s: float = 0.0) -> PhaseBreakdown:
    """Fold a shared-schema event stream into a :class:`PhaseBreakdown`."""
    wire = queueing = gate = 0.0
    for e in events:
        kind = e["kind"]
        if kind == "slice_sent":
            wire += float(e.get("wire_s", 0.0))
            queueing += float(e.get("queue_s", 0.0))
        elif kind == "forward_gate_open":
            gate += float(e.get("queue_s", 0.0))
    return PhaseBreakdown(compute_s=compute_s, wire_s=wire,
                          queueing_s=queueing, gate_stall_s=gate)


def _live_compute_s(cfg: LiveClusterConfig) -> float:
    """Per-worker emulated compute over one live run."""
    n_layers = len(live_model_spec(cfg).layers)
    return cfg.iterations * n_layers * (cfg.fwd_layer_s + cfg.bwd_layer_s)


@dataclass
class CalibrationReport:
    """Everything the live transport claims, measured in one object."""

    live_baseline_s: float
    live_p3_s: float
    sim_baseline_s: float
    sim_p3_s: float
    bit_identical: bool
    max_abs_diff: float
    tolerance: float = DEFAULT_TOLERANCE
    #: Per-strategy phase breakdowns ("baseline"/"p3") from the shared
    #: repro.obs event stream; populated by ``calibrate(observe=True)``.
    live_phases: Optional[Dict[str, PhaseBreakdown]] = None
    sim_phases: Optional[Dict[str, PhaseBreakdown]] = None

    @property
    def live_speedup(self) -> float:
        return self.live_baseline_s / self.live_p3_s

    @property
    def sim_speedup(self) -> float:
        return self.sim_baseline_s / self.sim_p3_s

    def agrees(self, tolerance: Optional[float] = None) -> bool:
        """Sign agreement within the documented tolerance band.

        True when live and simulated speedups fall on the same side of
        1.0, or when both sit inside ``1 ± tolerance`` (a predicted and
        measured wash both count as agreement).
        """
        return _same_sign(self.live_speedup, self.sim_speedup,
                          self.tolerance if tolerance is None else tolerance)

    def summary(self) -> str:
        lines = [
            "sim-vs-live calibration",
            f"  {'':14s}{'baseline':>12s}{'p3':>12s}{'speedup':>10s}",
            (f"  {'live (s)':14s}{self.live_baseline_s:12.4f}"
             f"{self.live_p3_s:12.4f}{self.live_speedup:9.2f}x"),
            (f"  {'sim  (s)':14s}{self.sim_baseline_s:12.4f}"
             f"{self.sim_p3_s:12.4f}{self.sim_speedup:9.2f}x"),
            (f"  bit-identical final params vs in-process store: "
             f"{'YES' if self.bit_identical else 'NO'} "
             f"(max |diff| = {self.max_abs_diff:.2e})"),
            (f"  sign agreement (tolerance ±{self.tolerance:.2f}): "
             f"{'YES' if self.agrees() else 'NO'}"),
        ]
        if self.live_phases and self.sim_phases:
            lines.append("  per-phase breakdown (whole run, repro.obs):")
            for strategy in ("baseline", "p3"):
                lines.append(f"    {strategy}:")
                lines.append(f"      live  {self.live_phases[strategy].row()}")
                lines.append(f"      sim   {self.sim_phases[strategy].row()}")
        return "\n".join(lines)


def _same_sign(live: float, sim: float, tol: float) -> bool:
    """Both ratios on one side of 1.0, or both within ``tol`` of it."""
    same_side = (live - 1.0) * (sim - 1.0) > 0
    both_flat = abs(live - 1.0) <= tol and abs(sim - 1.0) <= tol
    return bool(same_side or both_flat)


def _max_diff(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> float:
    return max(float(np.abs(np.asarray(a[name], dtype=np.float64)
                            - np.asarray(b[name], dtype=np.float64)).max())
               for name in a)


def _identical(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    return all(np.array_equal(np.asarray(a[name], dtype=np.float64),
                              np.asarray(b[name], dtype=np.float64))
               for name in a)


@dataclass
class FaultCalibrationReport:
    """Calibration under a shared :class:`FaultPlan` (tentpole claim 3).

    The same plan runs through both substrates — literally on the live
    stack (:mod:`repro.live.chaos` + retransmission), as its goodput
    interpretation in the simulator — and the report checks that both
    agree on the *sign* of the degradation, and that recovery preserved
    the live stack's bit-identity guarantee.
    """

    strategy: str
    plan: FaultPlan
    live_clean_s: float
    live_faulty_s: float
    sim_clean_s: float
    sim_faulty_s: float
    bit_identical_under_faults: bool
    max_abs_diff: float
    tolerance: float = DEFAULT_TOLERANCE
    #: Per-worker recovery counters from the faulty live run
    #: (retransmits, CRC failures, dropped/duplicated frames, ...).
    live_transport_stats: Optional[Dict[int, Dict[str, int]]] = None

    @property
    def live_degradation(self) -> float:
        """Faulty-over-clean mean iteration time, live (>1 = slower)."""
        return self.live_faulty_s / self.live_clean_s

    @property
    def sim_degradation(self) -> float:
        return self.sim_faulty_s / self.sim_clean_s

    def agrees(self, tolerance: Optional[float] = None) -> bool:
        """Both substrates degrade (or both shrug) under the plan."""
        return _same_sign(self.live_degradation, self.sim_degradation,
                          self.tolerance if tolerance is None else tolerance)

    def summary(self) -> str:
        return "\n".join([
            f"fault calibration ({self.strategy}, "
            f"{len(self.plan.faults)} fault(s), seed={self.plan.seed})",
            f"  {'':14s}{'clean':>12s}{'faulty':>12s}{'degradation':>13s}",
            (f"  {'live (s)':14s}{self.live_clean_s:12.4f}"
             f"{self.live_faulty_s:12.4f}{self.live_degradation:12.2f}x"),
            (f"  {'sim  (s)':14s}{self.sim_clean_s:12.4f}"
             f"{self.sim_faulty_s:12.4f}{self.sim_degradation:12.2f}x"),
            (f"  bit-identical under faults: "
             f"{'YES' if self.bit_identical_under_faults else 'NO'} "
             f"(max |diff| = {self.max_abs_diff:.2e})"),
            (f"  degradation sign agreement (tolerance "
             f"±{self.tolerance:.2f}): {'YES' if self.agrees() else 'NO'}"),
        ])


def calibrate_faults(cfg: LiveClusterConfig,
                     plan: Optional[FaultPlan] = None,
                     strategy: str = "p3",
                     tolerance: float = DEFAULT_TOLERANCE,
                     ) -> FaultCalibrationReport:
    """Run one strategy clean and under ``plan``, on both substrates.

    ``plan`` defaults to ``cfg.fault_plan``; the clean runs strip it.
    Live chaos and its sim goodput interpretation share the plan's
    timing vocabulary because :func:`predict_sim`'s mapping equates the
    two substrates' time axes, so no rescaling is needed.
    """
    plan = plan if plan is not None else cfg.fault_plan
    if plan is None or not plan:
        raise ValueError("calibrate_faults needs a non-empty FaultPlan")
    # Imported on use: importing repro.analysis must not load asyncio.
    from ..live.aio import run_live_aio

    clean_cfg = dc_replace(cfg, strategy=strategy, fault_plan=None)
    faulty_cfg = dc_replace(clean_cfg, fault_plan=plan)

    live_clean = run_live_aio(clean_cfg)
    live_faulty = run_live_aio(faulty_cfg)
    ref = run_inprocess(clean_cfg)
    return FaultCalibrationReport(
        strategy=strategy,
        plan=plan,
        live_clean_s=live_clean.mean_iteration_time,
        live_faulty_s=live_faulty.mean_iteration_time,
        sim_clean_s=_simulate_twin(clean_cfg),
        sim_faulty_s=_simulate_twin(faulty_cfg, plan),
        bit_identical_under_faults=_identical(live_faulty.final_params, ref),
        max_abs_diff=_max_diff(live_faulty.final_params, ref),
        tolerance=tolerance,
        live_transport_stats=live_faulty.transport_stats,
    )


def calibrate(cfg: LiveClusterConfig,
              tolerance: float = DEFAULT_TOLERANCE,
              live_results: Optional[Dict[str, LiveRunResult]] = None,
              observe: bool = False,
              ) -> CalibrationReport:
    """Run baseline and P3 live, check both fidelity claims.

    ``live_results`` may carry pre-run ``{"baseline": ..., "p3": ...}``
    results (the CLI reuses runs it already made); missing entries are
    run here.  With ``observe=True`` both substrates record the shared
    :mod:`repro.obs` event stream and the report gains comparable
    per-phase (compute / wire / queueing / gate-stall) breakdowns;
    pre-supplied live results must then come from an observed config.
    """
    # Imported on use: importing repro.analysis must not load asyncio.
    from ..live.aio import run_live_aio

    live_results = dict(live_results or {})
    run_cfg = dc_replace(cfg, observe=True) if observe else cfg
    for strategy in ("baseline", "p3"):
        if strategy not in live_results:
            live_results[strategy] = run_live_aio(run_cfg, strategy=strategy)
    live_base, live_p3 = live_results["baseline"], live_results["p3"]

    ref_base = run_inprocess(cfg, "baseline")
    ref_p3 = run_inprocess(cfg, "p3")
    identical = (_identical(live_base.final_params, ref_base)
                 and _identical(live_p3.final_params, ref_p3))
    max_diff = max(_max_diff(live_base.final_params, ref_base),
                   _max_diff(live_p3.final_params, ref_p3))

    sim_sessions: Optional[Dict[str, ObsSession]] = {} if observe else None
    sim_base_s, sim_p3_s = predict_sim(cfg, obs_sessions=sim_sessions)
    live_phases = sim_phases = None
    if observe:
        compute_s = _live_compute_s(cfg)
        live_phases = {
            name: phase_breakdown(result.events, compute_s=compute_s)
            for name, result in live_results.items()}
        sim_phases = {
            name: phase_breakdown(sess.events(), compute_s=compute_s)
            for name, sess in sim_sessions.items()}
    return CalibrationReport(
        live_baseline_s=live_base.mean_iteration_time,
        live_p3_s=live_p3.mean_iteration_time,
        sim_baseline_s=sim_base_s,
        sim_p3_s=sim_p3_s,
        bit_identical=identical,
        max_abs_diff=max_diff,
        tolerance=tolerance,
        live_phases=live_phases,
        sim_phases=sim_phases,
    )
