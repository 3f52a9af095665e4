"""Every claim, stated once: one row per claim of P3 (arXiv:1905.03960) or of an extension.

A row holds where the claim is made (a paper section, or ``extension`` and what it extends),
what it says, the paper's number (``None`` if qualitative or not the paper's), the
:data:`FIGURE_RUNS` measuring it, the measured quantity and the shape check (who wins, by
roughly what factor, where a crossover falls: DESIGN.md).  The benchmark checks every row at
``full`` settings, tier-1 those whose runs all have ``ci`` ones.
"""

from __future__ import annotations

import math
import operator
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..cosim import paper_systems
from ..models import get_model, resnet110_cifar
from ..sim import ClusterConfig
from ..strategies import baseline, credit_p3, p3, p3_with_compression, p3_with_policy
from ..training import TrainConfig, make_dataset, small_cnn
from .ablations import (latency_sensitivity, oversubscription_sweep, server_count_sweep,
                        shared_cluster_sweep, straggler_sensitivity)
from .accuracy import compare_systems, fig11_p3_vs_dgc, fig15_asgd_vs_p3
from .allreduce import allreduce_sweep
from .bandwidth import FIG7_PANELS, fig7_bandwidth_sweep
from .cache import SimCache
from .distributions import fig5_param_distribution
from .robustness import robustness_sweep
from .scalability import FIG10_PANELS, fig10_scalability
from .schedules import fig4_schedule_comparison, fig6_granularity_comparison, schedule_figure
from .sensitivity import sensitivity_scan
from .series import FigureData, speedup
from .sharding import placement_sweep
from .slice_size import FIG12_PANELS, fig12_slice_size_sweep
from .stats import _across_seeds, summarize
from .sweep import Sweep
from .tails import tail_comparison
from .tenancy import tenancy_sweep
from .utilization import (FIG8_9_CONFIGS, fig8_baseline_utilization, fig9_p3_utilization,
                          fig13_tensorflow_utilization, fig14_poseidon_utilization)


class FigureRun(NamedTuple):
    """``driver(*args, **full)`` writes ``results/<id>.csv``; ``ci``: tier-1's settings, if any."""

    id: str
    driver: Callable[..., FigureData]
    args: Tuple[Any, ...] = ()
    full: Mapping[str, Any] = {}
    ci: Optional[Mapping[str, Any]] = None


_SHORT = {"iterations": 4, "warmup": 1}
_FIG7_CI = {"resnet50": (2, 4, 6, 10), "vgg19": (15, 30), "sockeye": (2, 4, 8)}
_UTIL = {8: fig8_baseline_utilization, 9: fig9_p3_utilization}
# VGG-19 at 1k-parameter slices needs ~10^7 events; its grid starts at 3k.
_SLICES = (1_000, 3_000, 10_000, 50_000, 200_000, 1_000_000)
_CREDITS = (1, 2, 4, 8, 16, 64)
_CREDIT = (p3(), *(replace(credit_p3(c), name=f"credit_{c}") for c in _CREDITS))
_FAULTS_CI = {**_SHORT, "severities": (0.0, 0.75)}


def _four_systems(epochs: int) -> FigureData:
    """All four systems on Figure 15's data, learning rate and network (1 Gbps, ResNet-110)."""
    return compare_systems(
        paper_systems(), lambda: small_cnn(np.random.default_rng(2)),
        make_dataset(n_train=2048, n_val=512, seed=0), resnet110_cifar(batch_size=16),
        ClusterConfig(n_workers=4, bandwidth_gbps=1.0, seed=0),
        TrainConfig(n_workers=4, epochs=epochs, batch_size=64, lr=0.05, seed=3))


FIGURE_RUNS: Tuple[FigureRun, ...] = (
    FigureRun("fig4", lambda: schedule_figure(
        fig4_schedule_comparison(), "fig4", "Toy schedule: aggressive vs priority"), ci={}),
    FigureRun("fig5", fig5_param_distribution, ci={}),
    FigureRun("fig6", lambda: schedule_figure(
        fig6_granularity_comparison(), "fig6", "Toy granularity: layer vs sliced"), ci={}),
    *(FigureRun(panel, fig7_bandwidth_sweep, (model,), {"iterations": 5},
                {**_SHORT, "values": _FIG7_CI[model]} if model in _FIG7_CI else None)
      for model, panel in FIG7_PANELS.items()),
    *(FigureRun(f"fig{n}_{model}", _UTIL[n], (model,), ci=_SHORT)
      for n in _UTIL for model in sorted(FIG8_9_CONFIGS)),
    *(FigureRun(panel, fig10_scalability, (model,), {"iterations": 5},
                {**_SHORT, "values": (2, 8)} if model == "vgg19" else None)
      for model, panel in FIG10_PANELS.items()),
    FigureRun("fig11", fig11_p3_vs_dgc, full={"epochs": 16}),
    *(FigureRun(panel, fig12_slice_size_sweep, (model,),
                {"values": _SLICES[1:] if model == "vgg19" else _SLICES, "iterations": 4})
      for model, panel in FIG12_PANELS.items()),
    FigureRun("fig13", fig13_tensorflow_utilization),
    FigureRun("fig14", fig14_poseidon_utilization),
    FigureRun("fig15", fig15_asgd_vs_p3, full={"epochs": 16}),
    # Extensions.  The single-point ablations are Figure 7 columns with their own strategies;
    # the component and policy rows compare them with Figure 7's own points.
    FigureRun("ext_policies", fig7_bandwidth_sweep, ("resnet50", (4,)),
              {"strategies": tuple(map(p3_with_policy, ("reverse", "random", "uniform")))}),
    FigureRun("ext_dedicated_ps", fig7_bandwidth_sweep, ("vgg19", (15,)),
              {"strategies": (p3(),), "colocate_servers": False}),
    FigureRun("ext_latency", latency_sensitivity, ("resnet50",)),
    FigureRun("ext_server_count", server_count_sweep, ("vgg19",)),
    FigureRun("ext_shared_cluster", shared_cluster_sweep, ("resnet50",)),
    FigureRun("ext_straggler", straggler_sensitivity, ("resnet50", (1, 1.5, 2))),
    FigureRun("ext_oversubscription", oversubscription_sweep, ("resnet50",)),
    FigureRun("ext_compression", fig7_bandwidth_sweep, ("vgg19", (1,)),
              {"strategies": (baseline(), p3(), p3_with_compression(0.01)), **_SHORT}),
    *(FigureRun(f"ext_credit_{where}", fig7_bandwidth_sweep, ("resnet50", (4,)),
                {"strategies": _CREDIT, "oversubscription": ratio, **_SHORT})
      for where, ratio in (("edge", 1.0), ("core", 2.0))),
    FigureRun("ext_transformer", fig7_bandwidth_sweep, ("transformer_lm", (5, 10, 20, 40))),
    FigureRun("ext_transformer_tied", fig7_bandwidth_sweep, ("transformer_lm_tied", (10,)),
              {"strategies": (baseline(), p3())}),
    *(FigureRun(f"ext_allreduce_{model}", allreduce_sweep, (model, sizes),
                {"iterations": 5, "warmup": 2})
      for model, sizes in (("resnet50", (4e6,)), ("vgg19", (2e5, 1e6, 4e6, 1.6e7, 6.4e7)),
                           ("sockeye", (4e6,)))),
    FigureRun("ext_sensitivity", sensitivity_scan, ("resnet50",), {"iterations": 4}),
    FigureRun("ext_tails", tail_comparison, ("sockeye",), {"iterations": 30}),
    FigureRun("ext_sockeye_seeds", _across_seeds, ("sockeye",),
              {"bandwidth_gbps": 4.0, "iterations": 5}),
    FigureRun("ext_cosim", _four_systems, full={"epochs": 16}),
    FigureRun("ext_robustness", robustness_sweep, ci=_FAULTS_CI),
    FigureRun("ext_robustness_link", robustness_sweep, full={"kinds": ("link",)},
              ci={**_FAULTS_CI, "kinds": ("link",)}),
    FigureRun("ext_placement", placement_sweep),
    FigureRun("ext_tenancy", tenancy_sweep),
)
RUNS = {run.id: run for run in FIGURE_RUNS}
_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


class PaperClaim(NamedTuple):
    """A claim whose ``check`` (``"> 1.15"``, ``">= 1, <= 2"``) bounds ``measure``.

    ``measure(*figures)`` takes the figures of ``runs``; a string names a note of the one."""

    key: str
    where: str
    says: str
    paper: Optional[float]
    runs: Tuple[str, ...]
    quantity: str
    measure: Union[str, Callable[..., float]]
    check: str

    @property
    def ci(self) -> bool:
        """Tier-1 checks the row: every run it reads has ``ci`` settings."""
        return all(RUNS[run].ci is not None for run in self.runs)

    def holds(self, value: float) -> bool:
        """Whether ``value`` passes every term of ``check``."""
        return all(_OPS[op](value, float(b)) for op, b in map(str.split, self.check.split(",")))


def _each(f: Callable[[FigureData], float], worst=max) -> Callable[..., float]:
    return lambda *figs: worst(map(f, figs))


def _pairs(f: Callable[..., float], worst=max) -> Callable[..., float]:
    """The worst ``f(baseline, p3)``: the runs are Figure 8's, then Figure 9's."""
    return lambda *figs: worst(map(f, figs[:len(figs) // 2], figs[len(figs) // 2:]))


def _ratio(of: str, pick: Callable = max) -> Callable[[FigureData], float]:
    return lambda fig: pick(speedup(fig, over="baseline", of=of).y)


def _notes(op: Callable, of: str, over: Optional[str] = None) -> Callable[..., float]:
    """``op`` of the last figure's note ``of`` and the first's ``over`` (or ``of``)."""
    return lambda *figs: op(figs[-1].notes[of], figs[0].notes[over or of])


def _plateau(label: str, gbps: float) -> Callable[[FigureData], float]:
    return lambda fig: fig.get(label).y_at(gbps) / get_model("resnet50").samples_per_sec


def _vs_best(*ends: int) -> Callable[[FigureData], float]:
    return lambda fig: fig.get("p3").y[list(ends)].max() / fig.get("p3").y.max()


def _over(of: str, over: str, at: int = 0) -> Callable[[FigureData], float]:
    """``of`` ÷ ``over`` at the ``at``-th point (a Figure 7 column has one)."""
    return lambda fig: fig.get(of).y[at] / fig.get(over).y[at]


def _over_at(x: float, of: str, over: str) -> Callable[[FigureData], float]:
    """``of`` ÷ ``over`` at ``x`` (the grids differ between ``full`` and ``ci``)."""
    return lambda fig: fig.get(of).y_at(x) / fig.get(over).y_at(x)


def _p3_at(x: float, vs: str) -> Callable[[FigureData, FigureData], float]:
    """Figure 7's P3 at ``x`` ÷ the one-point column's ``vs``."""
    return lambda fig7, column: fig7.get("p3").y_at(x) / column.get(vs).y[0]


def _trend(label: str) -> Callable[[FigureData], float]:
    """``label`` at the last point ÷ at the first."""
    return lambda fig: fig.get(label).y[-1] / fig.get(label).y[0]


def _final(of: str, over: str) -> Callable[[FigureData], float]:
    return lambda fig: fig.get(of).y[-1] - fig.get(over).y[-1]


def _credits(fig: FigureData) -> np.ndarray:
    return np.array([fig.get(f"credit_{c}").y[0] for c in _CREDITS])


def _ring_gain(fig: FigureData) -> float:
    """Priority launch of 4 MB slices ÷ FIFO launch of 25 MB fused buckets."""
    return fig.get("allreduce_p3").y_at(4e6) / fig.get("allreduce_fifo").y[0]


def _best(label: str) -> Callable[[FigureData], float]:
    return lambda fig: fig.get(label).x[fig.get(label).y.argmax()]


def _placed(placement: str, pick: Callable = min) -> Callable[[FigureData], float]:
    """``pick`` of coarse-sliced P3's ``placement`` ÷ round-robin over the cluster sizes."""
    return lambda fig: pick(fig.get(f"p3/{placement}").y / fig.get("p3/round_robin").y)


_DIV, _SUB = operator.truediv, operator.sub
_FIG8_9 = tuple(f"fig{n}_{model}" for n in _UTIL for model in sorted(FIG8_9_CONFIGS))
_FIG8, _FIG12 = _FIG8_9[:3], tuple(FIG12_PANELS.values())
_LINK = _notes(_DIV, "outbound_peak_gbps", "bandwidth_gbps")
_PEAK, _SLICING = "peak P3 ÷ baseline", "peak slicing ÷ baseline"
_ABL, _WANG, _BYTESCHED = ("extension, ablation", "extension of §5.3: Wang et al., arXiv:2008.08445",
                           "extension: ByteScheduler, SOSP '19")
_RING, _LM, _COSIM = "extension of §6: allreduce", "extension: transformer LM", "extension of App. B.2"
_P3 = "P3 ÷ baseline"
_FAULTS, _TENANCY = "extension of §5.3: faults", "extension of §5.3: tenancy"
_PHUB = "extension: Parameter Hub, arXiv:1805.07891"

PAPER_CLAIMS: Tuple[PaperClaim, ...] = tuple(map(PaperClaim._make, (
    ("fig4_priority_halves_delay", "§3, Fig 4", "priority sync halves the toy's delay", 0.5,
     ("fig4",), "P3 ÷ baseline stall", _notes(_DIV, "p3_stall_s", "baseline_stall_s"), "< 0.6"),
    ("fig5_vgg19_fc6_share", "§3, Fig 5", "VGG-19's fc6 weight holds 71.5 % of the model", 0.715,
     ("fig5",), "share of VGG-19's largest array", "vgg19_heaviest_share", "> 0.70"),
    ("fig5_resnet50_arrays", "§3, Fig 5", "ResNet-50 has ~160 small arrays", 160, ("fig5",),
     "ResNet-50 arrays", lambda f: len(f.get("resnet50").x), ">= 155, <= 165"),
    ("fig5_sockeye_heaviest_first", "§3, Fig 5", "Sockeye's heaviest array is its first", 1,
     ("fig5",), "position of that array", "sockeye_heaviest_index", "== 1"),
    ("fig6_slicing_cuts_stall", "§3, Fig 6", "slicing pipelines receive, update and send: ~30 % "
     "less communication", 0.3, ("fig6",), "share of the sync stall slicing removes",
     lambda f: 1 - f.notes["sliced_stall_s"] / f.notes["layer_granularity_stall_s"], "> 0.2"),
    ("fig7a_resnet50_peak_speedup", "Abstract, Fig 7a", "P3 speeds ResNet-50 up by as much as 25 %",
     1.25, ("fig7a",), _PEAK, "max_p3_speedup", "> 1.15"),
    ("fig7b_inceptionv3_peak_speedup", "§5.3, Fig 7b", "InceptionV3: as much as 18 %", 1.18,
     ("fig7b",), _PEAK, "max_p3_speedup", "> 1.10"),
    ("fig7c_vgg19_peak_speedup", "Abstract, Fig 7c", "VGG-19: as much as 66 %", 1.66, ("fig7c",),
     _PEAK, "max_p3_speedup", "> 1.4"),
    ("fig7d_sockeye_peak_speedup", "Abstract, Fig 7d", "Sockeye: as much as 38 %, though its "
     "heaviest layer is the first", 1.38, ("fig7d",), _PEAK, "max_p3_speedup", "> 1.1"),
    ("fig7_p3_never_hurts", "§5.3, Fig 7", "P3 is never slower than the baseline", None,
     ("fig7a", "fig7c", "fig7d"), "lowest P3 ÷ baseline", _each(_ratio("p3", min), min), ">= 0.97"),
    ("fig7a_slicing_alone_resnet50", "§5.3, Fig 7a", "slicing alone does not help ResNet-50: "
     "its layers are small", None, ("fig7a",), _SLICING, _ratio("slicing"), "< 1.15"),
    ("fig7b_slicing_alone_inceptionv3", "§5.3, Fig 7b", "nor InceptionV3", None, ("fig7b",),
     _SLICING, _ratio("slicing"), "< 1.25"),
    ("fig7c_slicing_alone_vgg19", "§5.3, Fig 7c", "but does help VGG-19: one array holds most "
     "of its bytes", None, ("fig7c",), _SLICING, _ratio("slicing"), "> 1.3"),
    ("fig7a_parity_when_compute_bound", "§5.3, Fig 7a", "the gain vanishes once bandwidth is "
     "ample", None, ("fig7a",), "P3 ÷ baseline at the top bandwidth",
     _ratio("p3", lambda y: y[-1]), ">= 0.95, <= 1.05"),
    ("fig7a_baseline_holds_to_6gbps", "§5.3, Fig 7a", "the ResNet-50 baseline holds its "
     "plateau down to ~6 Gbps", 6.0, ("fig7a",), "baseline at 6 Gbps ÷ plateau",
     _plateau("baseline", 6.0), "> 0.90"),
    ("fig7a_baseline_drops_below_6gbps", "§5.3, Fig 7a", "and drops below it", None, ("fig7a",),
     "baseline at 4 Gbps ÷ plateau", _plateau("baseline", 4.0), "< 0.85"),
    ("fig7a_p3_holds_to_4gbps", "§5.3, Fig 7a", "P3 holds it down to ~4 Gbps", 4.0, ("fig7a",),
     "P3 at 4 Gbps ÷ plateau", _plateau("p3", 4.0), "> 0.93"),
    ("fig8_bursts_fill_the_link", "§5.4, Fig 8; App. B.1", "baseline, TensorFlow and Poseidon "
     "traffic comes in bursts that fill the link", None, _FIG8 + ("fig13", "fig14"),
     "lowest peak ÷ link bandwidth", _each(_LINK, min), "> 0.9"),
    ("fig8_traces_within_the_link", "§5.4, App. B.1", "usage is read bwm-ng style off a "
     "throttled link", None, _FIG8_9 + ("fig13", "fig14"), "highest peak ÷ link bandwidth",
     _each(_LINK), "<= 1.05"),
    ("fig8_baseline_idles", "§5.4, Fig 8", "the baseline's link idles between bursts", None,
     _FIG8, "lowest idle fraction", _each(lambda f: f.notes["outbound_idle_frac"], min), "> 0.15"),
    ("fig9_p3_cuts_idle_time", "§5.4, Fig 9", "P3 shrinks the idle time", None, _FIG8_9,
     "largest idle fraction, P3 − baseline", _pairs(_notes(_SUB, "outbound_idle_frac")), "< 0"),
    ("fig9_p3_iterates_faster", "§5.4, Fig 9", "and so shortens the iteration", None, _FIG8_9,
     "largest P3 ÷ baseline iteration time", _pairs(_notes(_DIV, "iteration_time_s")), "< 1"),
    ("fig9_p3_overlaps_directions", "§5.4, Fig 9", "P3 sends and receives at once where the "
     "baseline's directions are largely disjoint (VGG-19, Sockeye)", None,
     _FIG8_9[1:3] + _FIG8_9[4:], "smallest tx/rx overlap gain, P3 − baseline",
     _pairs(_notes(_SUB, "tx_rx_overlap"), min), "> 0"),
    ("fig10a_resnet50_scales_linearly", "§5.5, Fig 10a", "ResNet-50 scales near-linearly with "
     "both", None, ("fig10a",), "P3 scaling efficiency", "scaling_efficiency_p3", "> 0.9"),
    ("fig10a_resnet50_near_parity", "§5.5, Fig 10a", "at near parity: 10 Gbps suffices", None,
     ("fig10a",), _PEAK, "max_p3_speedup", "< 1.25"),
    ("fig10b_vgg19_gain", "§5.5, Fig 10b", "P3 speeds VGG-19 up by as much as 61 % (8 machines)",
     1.61, ("fig10b",), _PEAK, "max_p3_speedup", "> 1.25"),
    ("fig10b_vgg19_gap_grows", "§5.5, Fig 10b", "and its lead grows with the cluster", None,
     ("fig10b",), "P3 − baseline scaling efficiency",
     _notes(_SUB, "scaling_efficiency_p3", "scaling_efficiency_baseline"), "> 0"),
    ("fig10c_sockeye_gain", "§5.5, Fig 10c", "Sockeye: as much as 18 %", 1.18, ("fig10c",), _PEAK,
     "max_p3_speedup", "> 1.0"),
    ("fig11_dgc_costs_accuracy", "§5.6, Fig 11", "DGC costs ~0.4 % final accuracy on average; "
     "exact P3 costs none", 0.004, ("fig11",), "mean final accuracy, P3 − DGC",
     "mean_accuracy_drop", "> 0, < 0.08"),
    ("fig11_p3_worst_beats_dgc_worst", "§5.6, Fig 11", "P3 is as accurate in every setting",
     None, ("fig11",), "worst final accuracy, P3 − DGC",
     _notes(_SUB, "p3_final_worst", "dgc_final_worst"), ">= 0"),
    ("fig12_interior_optimum", "§5.7, Fig 12", "throughput falls on both sides of the best size",
     None, _FIG12, "highest end-of-grid throughput ÷ best", _each(_vs_best(0, -1)), "< 1"),
    ("fig12_tiny_slices_hurt", "§5.7, Fig 12", "tiny slices drown in per-message overhead",
     None, _FIG12, "highest smallest-slice throughput ÷ best", _each(_vs_best(0)), "< 0.9"),
    ("fig12_optimum_near_50k", "§5.7, Fig 12", "50 000 parameters per slice is the optimum",
     50_000, _FIG12, "largest log10 distance of the best slice from 50 000",
     _each(lambda f: abs(math.log10(f.notes["best_slice_size"] / 50_000))), "<= 1"),
    ("fig13_tensorflow_directions_disjoint", "App. B.1, Fig 13", "TensorFlow's deferred pull "
     "decouples receiving from sending", None, ("fig13",), "inbound idle fraction",
     "inbound_idle_frac", "> 0.2"),
    ("fig14_poseidon_idles", "App. B.1, Fig 14", "Poseidon's wait-free backprop still idles "
     "the link", None, ("fig14",), "idle fraction", "outbound_idle_frac", "> 0.05"),
    ("fig15_p3_converges_higher", "App. B.2, Fig 15", "P3 ends at 93 % accuracy, ASGD at 88 %",
     0.05, ("fig15",), "final accuracy, P3 − ASGD", _notes(_SUB, "p3_final", "asgd_final"), "> 0"),
    ("fig15_asgd_iterates_faster", "App. B.2, Fig 15", "ASGD iterates faster: no barrier", None,
     ("fig15",), "ASGD ÷ P3 iteration time", _notes(_DIV, "asgd_iter_time_s", "p3_iter_time_s"),
     "<= 1.05"),
    ("fig15_p3_sooner_to_80pct", "App. B.2, Fig 15", "P3 reaches 80 % accuracy ~6× sooner", 6.0,
     ("fig15",), "ASGD ÷ P3 time to 80 %", "asgd_to_p3_time_ratio", "> 1"),
    ("ext_components_p3_keeps_slicing_gain", _ABL, "VGG-19 @ 15 Gbps: priorities cost nothing "
     "on top of slicing", None, ("fig7c",), "P3 ÷ slicing-only", _over_at(15, "p3", "slicing"),
     ">= 0.98"),
    ("ext_components_slicing_carries_vgg19", _ABL, "slicing does most of that work", None,
     ("fig7c",), "slicing-only ÷ baseline", _over_at(15, "slicing", "baseline"), "> 1.2"),
    ("ext_components_p3_helps_resnet50", _ABL, "ResNet-50 @ 4 Gbps: P3 helps", None, ("fig7a",),
     _P3, _over_at(4, "p3", "baseline"), "> 1.1"),
    ("ext_components_slicing_alone_resnet50", _ABL, "but not slicing alone: priorities do the "
     "work", None, ("fig7a",), "slicing-only ÷ baseline", _over_at(4, "slicing", "baseline"),
     "< 1.15"),
    ("ext_policy_forward_beats_reverse", _ABL, "consumption order is the priority to use: it "
     "beats reverse order", None, ("fig7a", "ext_policies"), "forward ÷ reverse-order P3",
     _p3_at(4, "p3_reverse"), ">= 1"),
    ("ext_policy_forward_beats_random", _ABL, "and random ones", None, ("fig7a", "ext_policies"),
     "forward ÷ random-order P3", _p3_at(4, "p3_random"), ">= 0.999"),
    ("ext_policy_forward_beats_uniform", _ABL, "and one priority for all", None,
     ("fig7a", "ext_policies"), "forward ÷ uniform-priority P3", _p3_at(4, "p3_uniform"),
     ">= 0.999"),
    ("ext_dedicated_ps_p3_insensitive", _ABL, "P3 does not care whether the PS shards share the "
     "workers' machines", None, ("fig7c", "ext_dedicated_ps"), "P3 on dedicated ÷ colocated PS",
     lambda colo, ded: ded.get("p3").y[0] / colo.get("p3").y_at(15), ">= 0.9, <= 1.15"),
    ("ext_latency_p3_robust", _ABL, "P3's gain is bandwidth scheduling, not latency hiding: "
     "10–1000 µs latency barely moves it", None, ("ext_latency",), "lowest ÷ highest P3",
     lambda fig: fig.get("p3").y.min() / fig.get("p3").y.max(), "> 0.75"),
    ("ext_server_count_incast", _ABL, "fewer PS shards concentrate traffic on fewer NICs "
     "(incast)", None, ("ext_server_count",), "P3 on 4 shards ÷ on 1", "p3_full_sharding_gain",
     "> 1.5"),
    ("ext_shared_p3_gain_holds", "extension of §5.3", "P3's lead holds when other tenants take "
     "up to 60 % of each NIC", None, ("ext_shared_cluster",), "P3 ÷ baseline, loaded − unloaded",
     _notes(_SUB, "speedup_loaded", "speedup_unloaded"), ">= -0.03"),
    ("ext_shared_contention_hurts", "extension of §5.3", "while the contention slows everyone",
     None, ("ext_shared_cluster",), "baseline at 60 % load ÷ unloaded", _trend("baseline"), "< 1"),
    ("ext_straggler_sync_pays", "extension of §5.5", "one 2×-slow worker sets synchronous SGD's "
     "pace", None, ("ext_straggler",), "baseline with a 2× straggler ÷ without",
     _trend("baseline"), "< 0.65"),
    ("ext_straggler_asgd_shrugs", "extension of App. B.2", "ASGD does not wait for it", None,
     ("ext_straggler",), "ASGD ÷ baseline with a 2× straggler", _over("asgd", "baseline", -1),
     "> 1.2"),
    ("ext_fifo_core_erases_gain", _WANG, "once a FIFO core, which ignores end-host priorities, is "
     "the bottleneck, P3's gain is gone", None, ("ext_oversubscription",),
     "P3 ÷ baseline at 4:1 oversubscription", "speedup_at_core_bottleneck", "< 1.10"),
    ("ext_fifo_core_binds", _WANG, "the oversubscribed core is the bottleneck", None,
     ("ext_oversubscription",), "baseline at 4:1 ÷ at 1:1", _trend("baseline"), "< 1"),
    ("ext_compression_stacks_on_p3", "extension of §6", "compression on top of P3 recovers the "
     "compute bound at 1 Gbps (VGG-19)", None, ("ext_compression",), "P3 + 1 % compression ÷ P3",
     _over("p3_compressed", "p3"), "> 5"),
    ("ext_p3_helps_at_1gbps", "extension of §6", "P3 alone still beats the baseline there", None,
     ("ext_compression",), _P3, _over("p3", "baseline"), "> 1"),
    ("ext_credit_grows_at_the_edge", _BYTESCHED, "at the edge bottleneck a credit window only "
     "idles the pipe: throughput grows with it", None, ("ext_credit_edge",),
     "credit 64 ÷ credit 1", lambda fig: _credits(fig)[-1] / _credits(fig)[0], "> 1"),
    ("ext_credit_widest_best_at_the_edge", _BYTESCHED, "the widest window is the best there",
     None, ("ext_credit_edge",), "credit 64 ÷ best credit",
     lambda fig: _credits(fig)[-1] / _credits(fig).max(), "== 1"),
    ("ext_credit_wins_behind_a_fifo_core", _BYTESCHED, "behind a 2:1 FIFO core a finite window "
     "beats plain P3", None, ("ext_credit_core",), "best credit ÷ plain P3",
     lambda fig: _credits(fig).max() / fig.get("p3").y[0], "> 1"),
    ("ext_credit_best_window", _BYTESCHED, "at a moderate window", None, ("ext_credit_core",),
     "best credit (slices in flight)", lambda fig: _CREDITS[_credits(fig).argmax()],
     ">= 2, <= 32"),
    ("ext_transformer_gain", _LM, "P3's conclusions carry over to a GPT-2-small-like LM", None,
     ("ext_transformer",), _PEAK, _ratio("p3"), "> 1.1"),
    ("ext_tying_speeds_p3", _LM, "tying its head to the embedding cuts traffic: P3 gets faster",
     None, ("ext_transformer", "ext_transformer_tied"), "tied ÷ untied P3 at 10 Gbps",
     lambda untied, tied: tied.get("p3").y[0] / untied.get("p3").y_at(10), ">= 1"),
    ("ext_tied_p3_still_helps", _LM, "and still beats the baseline", None,
     ("ext_transformer_tied",), "P3 ÷ baseline, tied, at 10 Gbps", _over("p3", "baseline"),
     ">= 1"),
    ("ext_allreduce_p3_never_hurts", _RING, "priority launch of sliced buckets never loses to "
     "25 MB FIFO fusion", None, ("ext_allreduce_resnet50", "ext_allreduce_vgg19",
                                 "ext_allreduce_sockeye"),
     "lowest sliced priority ÷ FIFO", _each(_ring_gain, min), ">= 0.98"),
    ("ext_allreduce_vgg19_gain", _RING, "and wins on VGG-19", None, ("ext_allreduce_vgg19",),
     "sliced priority ÷ FIFO", _ring_gain, "> 1.1"),
    ("ext_allreduce_small_slices_hurt", _RING, "sub-MB slices pay the ring's per-step overhead "
     "2(W−1) times per op", None, ("ext_allreduce_vgg19",), "200 kB slices ÷ best",
     lambda fig: fig.get("allreduce_p3").y[0] / fig.get("allreduce_p3").y.max(), "< 0.8"),
    ("ext_allreduce_coarse_optimum", _RING, "so the best slice is far coarser than the PS's "
     "200 kB", None, ("ext_allreduce_vgg19",), "best slice (bytes)", _best("allreduce_p3"),
     ">= 1000000"),
    ("ext_sensitivity_headline_survives", "extension: cost constants", "P3 beats the baseline "
     "(ResNet-50 @ 4 Gbps) under order-of-magnitude sweeps of every cost constant", None,
     ("ext_sensitivity",), "lowest P3 ÷ baseline over the sweeps", "min_speedup", "> 1.05"),
    ("ext_tails_p3_shifts_median", "extension of §5.5", "under Sockeye's jitter P3 shortens the "
     "median iteration", None, ("ext_tails",), "P3 ÷ baseline median iteration time",
     _over("p3", "baseline"), "< 1"),
    ("ext_sockeye_speedup_ci", "extension of §5.5", "Sockeye's speedup holds across seeds: its "
     "95 % CI excludes parity", None, ("ext_sockeye_seeds",), "95 % CI low end of P3 ÷ baseline, "
     "5 seeds", lambda fig: summarize(fig.get("p3").y / fig.get("baseline").y).lo, "> 1"),
    ("ext_cosim_same_curve", _COSIM, "baseline and P3 follow one accuracy curve", None,
     ("ext_cosim",), "largest accuracy gap, P3 vs baseline",
     lambda fig: np.abs(fig.get("p3").y - fig.get("baseline").y).max(), "== 0"),
    ("ext_cosim_p3_clock_faster", _COSIM, "on a faster clock", None, ("ext_cosim",),
     "P3 ÷ baseline training time", lambda fig: fig.get("p3").x[-1] / fig.get("baseline").x[-1],
     "< 1"),
    ("ext_cosim_p3_beats_dgc", _COSIM, "exact P3 ends at least as accurate as DGC", None,
     ("ext_cosim",), "final accuracy, P3 − DGC", _final("p3", "dgc"), ">= 0"),
    ("ext_cosim_p3_beats_asgd", _COSIM, "and above ASGD", None, ("ext_cosim",),
     "final accuracy, P3 − ASGD", _final("p3", "asgd"), "> 0"),
    ("ext_cosim_dgc_iterates_faster", _COSIM, "DGC's compressed pushes iterate faster than the "
     "baseline at 1 Gbps", None, ("ext_cosim",), "DGC ÷ baseline iteration time",
     _notes(_DIV, "dgc_iter_time_s", "baseline_iter_time_s"), "< 1"),
    ("ext_faults_p3_degrades_no_worse", _FAULTS, "a straggler, a degraded NIC and PS stalls "
     "together cost P3 no larger share of its throughput than the baseline", None,
     ("ext_robustness",), "P3 − baseline retention at severity 0.75",
     "p3_minus_baseline_retention", ">= -0.005"),
    ("ext_faults_p3_keeps_its_lead", _FAULTS, "and keeps at least the baseline's absolute "
     "throughput", None, ("ext_robustness",), "P3 ÷ baseline at severity 0.75",
     "p3_over_baseline_under_faults", ">= 0.995"),
    ("ext_faults_bite", _FAULTS, "the plan really bites: every strategy loses throughput", None,
     ("ext_robustness",), "highest retention at severity 0.75",
     lambda fig: max(fig.get(s).y[-1] for s in ("baseline", "slicing", "p3")), "< 0.95"),
    ("ext_faults_link_favors_p3", _FAULTS, "a sustained NIC degradation alone costs P3 a "
     "smaller share than the baseline", None, ("ext_robustness_link",),
     "P3 − baseline retention at severity 0.75, NIC only", "p3_minus_baseline_retention", "> 0"),
    ("ext_placement_balanced_fixes_skew", _PHUB, "2M-parameter slices leave P3's keys skewed: "
     "balanced placement beats round-robin at 16, 64 and 256 workers", None, ("ext_placement",),
     "lowest balanced ÷ round-robin, P3", _placed("balanced"), "> 1.05"),
    ("ext_placement_baseline_gains_little", _PHUB, "the baseline, whose big arrays are already "
     "split across every shard, gains almost nothing from it", None, ("ext_placement",),
     "best balanced ÷ round-robin, baseline", "max_balanced_gain_baseline", "< 1.05"),
    ("ext_placement_two_tier_wins_at_256", _PHUB, "two-tier aggregation pays where root fan-in "
     "dominates: 256 workers", None, ("ext_placement",), "two-tier ÷ round-robin at 256, P3",
     _placed("two_tier", lambda gains: gains[-1]), "> 2"),
    ("ext_placement_two_tier_costs_below", _PHUB, "but costs P3 throughput at 16 and 64", None,
     ("ext_placement",), "highest two-tier ÷ round-robin below 256, P3",
     _placed("two_tier", lambda gains: gains[:-1].max()), "< 1"),
    ("ext_tenancy_p3_p95_lead", _TENANCY, "8 tenants alternating P3 and baseline jobs on one "
     "fabric: under weighted or equal fair sharing P3's jobs keep a shorter p95 iteration",
     None, ("ext_tenancy",), "lower baseline ÷ P3 p95, weighted and equal",
     _notes(min, "p3_p95_advantage_weighted", "p3_p95_advantage_equal"), "> 1.1"),
    ("ext_tenancy_lead_needs_contention", _TENANCY, "with no sharing each job keeps its whole NIC, "
     "and the two strategies tie", None, ("ext_tenancy",), "baseline ÷ P3 p95, no sharing",
     "p3_p95_advantage_none", ">= 0.99, <= 1.01"),
)))
CLAIMS = {claim.key: claim for claim in PAPER_CLAIMS}  # by key, in ledger order


def run_figure(run: FigureRun, scale: str, **grid: Any) -> FigureData:
    """Run ``run`` at ``scale``, ``"full"`` or ``"ci"``; ``grid`` reaches ``run_grid`` drivers."""
    takes_grid = isinstance(run.driver, Sweep) or run.driver in (placement_sweep, robustness_sweep)
    kwargs = {**(run.full if scale == "full" else run.ci), **(grid if takes_grid else {})}
    return run.driver(*run.args, **kwargs)


def measure(claim: PaperClaim, scale: str, figures: Dict[str, FigureData],
            progress: Optional[Callable[[str], None]] = None, **grid: Any) -> float:
    """The claim's value; a run missing from ``figures`` is named to ``progress``, run, kept."""
    for run_id in claim.runs:
        if run_id not in figures:
            if progress is not None:
                progress(f"{run_id} ({scale})")
            figures[run_id] = run_figure(RUNS[run_id], scale, **grid)
    figs = [figures[run_id] for run_id in claim.runs]
    if isinstance(claim.measure, str):
        return float(figs[0].notes.get(claim.measure, math.nan))
    return float(claim.measure(*figs))


HEADER = ("row", "where", "the claim", "paper", "measured quantity", "check", "measured", "holds")
BEGIN, END = "<!-- repro report: begin -->", "<!-- repro report: end -->"


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "—"
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.3g}"


def table(outcomes: List[Tuple[PaperClaim, Optional[float]]]) -> List[str]:
    """Markdown rows; a ``None`` value is a row that was not run."""
    rows = [list(HEADER), ["---"] * len(HEADER)] + [
        [f"`{claim.key}`", claim.where, claim.says, _fmt(claim.paper), claim.quantity,
         f"`{claim.check}`"] + (["not run", "—"] if value is None else
                                [_fmt(value), "yes" if claim.holds(value) else "**no**"])
        for claim, value in outcomes]
    return ["| " + " | ".join(row) + " |" for row in rows]


def generate_report(quick: bool = False, progress: Optional[Callable[[str], None]] = None,
                    jobs: int = 1, cache: Optional[SimCache] = None) -> str:
    """The markdown report: every row measured at ``full`` scale, then each run's notes.

    ``quick`` measures the ``ci`` rows at theirs and lists the others as not run;
    ``jobs``/``cache`` reach the sweeps without changing a number."""
    scale, figures = "ci" if quick else "full", {}
    outcomes = [(claim, measure(claim, scale, figures, progress, jobs=jobs, cache=cache)
                 if claim.ci or not quick else None) for claim in PAPER_CLAIMS]
    notes = [f"| {run.id} | " + ", ".join(f"{k}={v}" for k, v in figures[run.id].notes.items())
             + " |" for run in FIGURE_RUNS if run.id in figures]
    return "\n".join([
        "# P3 reproduction report", "", BEGIN, f"Measured at the `{scale}` scale by "
        f"`python -m repro report{' --quick' if quick else ''}`.", "", *table(outcomes), "",
        "| run | notes |", "|---|---|", *notes, END, ""])


def write_report(text: str, path: str) -> None:
    """Write ``text`` to ``path``, or just its block where ``path`` has one (EXPERIMENTS.md)."""
    old = Path(path).read_text() if Path(path).exists() else ""
    if BEGIN in old and END in old:
        text = old[:old.index(BEGIN)] + text[text.index(BEGIN):text.index(END)] + old[old.index(END):]
    Path(path).write_text(text)
