"""The paper's claims, stated once: one row per claim of P3 (arXiv:1905.03960).

A row holds where the paper makes the claim, what it says, its number (``None`` if
qualitative), the :data:`FIGURE_RUNS` measuring it, the measured quantity and the shape
check (who wins, by roughly what factor, where a crossover falls: DESIGN.md).  The benchmark
checks every row at ``full`` settings, tier-1 those whose runs all have ``ci`` ones.
"""

from __future__ import annotations

import math
import operator
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from ..models import get_model
from .accuracy import fig11_p3_vs_dgc, fig15_asgd_vs_p3
from .bandwidth import FIG7_PANELS, fig7_bandwidth_sweep
from .cache import SimCache
from .distributions import fig5_param_distribution
from .scalability import FIG10_PANELS, fig10_scalability
from .schedules import fig4_schedule_comparison, fig6_granularity_comparison, schedule_figure
from .series import FigureData, speedup
from .slice_size import FIG12_PANELS, fig12_slice_size_sweep
from .sweep import Sweep
from .utilization import (FIG8_9_CONFIGS, fig8_baseline_utilization, fig9_p3_utilization,
                          fig13_tensorflow_utilization, fig14_poseidon_utilization)


class FigureRun(NamedTuple):
    """``driver(*args, **full)`` writes ``results/<id>.csv``; ``ci``: tier-1's (None: too slow)."""

    id: str
    driver: Callable[..., FigureData]
    args: Tuple[Any, ...] = ()
    full: Mapping[str, Any] = {}
    ci: Optional[Mapping[str, Any]] = None


_TIER1 = {"iterations": 4, "warmup": 1}
_FIG7_CI = {"resnet50": (2, 4, 6, 10), "vgg19": (15, 30), "sockeye": (2, 4, 8)}
_UTIL = {8: fig8_baseline_utilization, 9: fig9_p3_utilization}
# VGG-19 at 1k-parameter slices needs ~10^7 events; its grid starts at 3k.
_SLICES = (1_000, 3_000, 10_000, 50_000, 200_000, 1_000_000)

FIGURE_RUNS: Tuple[FigureRun, ...] = (
    FigureRun("fig4", lambda: schedule_figure(
        fig4_schedule_comparison(), "fig4", "Toy schedule: aggressive vs priority"), ci={}),
    FigureRun("fig5", fig5_param_distribution, ci={}),
    FigureRun("fig6", lambda: schedule_figure(
        fig6_granularity_comparison(), "fig6", "Toy granularity: layer vs sliced"), ci={}),
    *(FigureRun(panel, fig7_bandwidth_sweep, (model,), {"iterations": 5},
                {**_TIER1, "values": _FIG7_CI[model]} if model in _FIG7_CI else None)
      for model, panel in FIG7_PANELS.items()),
    # Section 5.3's crossovers on their own grid; the rows read the same points on fig7a.
    FigureRun("fig7_crossover", fig7_bandwidth_sweep, ("resnet50",),
              {"values": (3, 4, 5, 6, 7, 8), "iterations": 5}),
    *(FigureRun(f"fig{n}_{model}", _UTIL[n], (model,), ci=_TIER1)
      for n in _UTIL for model in sorted(FIG8_9_CONFIGS)),
    *(FigureRun(panel, fig10_scalability, (model,), {"iterations": 5},
                {**_TIER1, "values": (2, 8)} if model == "vgg19" else None)
      for model, panel in FIG10_PANELS.items()),
    FigureRun("fig11", fig11_p3_vs_dgc, full={"epochs": 16}),
    *(FigureRun(panel, fig12_slice_size_sweep, (model,),
                {"values": _SLICES[1:] if model == "vgg19" else _SLICES, "iterations": 4})
      for model, panel in FIG12_PANELS.items()),
    FigureRun("fig13", fig13_tensorflow_utilization),
    FigureRun("fig14", fig14_poseidon_utilization),
    FigureRun("fig15", fig15_asgd_vs_p3, full={"epochs": 16}),
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


_DIV, _SUB = operator.truediv, operator.sub
_FIG8_9 = tuple(f"fig{n}_{model}" for n in _UTIL for model in sorted(FIG8_9_CONFIGS))
_FIG8, _FIG12 = _FIG8_9[:3], tuple(FIG12_PANELS.values())
_LINK = _notes(_DIV, "outbound_peak_gbps", "bandwidth_gbps")
_PEAK, _SLICING = "peak P3 ÷ baseline", "peak slicing ÷ baseline"

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
)))
CLAIMS = {claim.key: claim for claim in PAPER_CLAIMS}  # by key, in ledger order


def run_figure(run: FigureRun, scale: str, **grid: Any) -> FigureData:
    """Run ``run`` at ``scale``, ``"full"`` or ``"ci"``; ``grid`` reaches only ``Sweep``s."""
    kwargs = {**(run.full if scale == "full" else run.ci),
              **(grid if isinstance(run.driver, Sweep) else {})}
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


HEADER = ("row", "where", "the paper says", "paper", "measured quantity", "check", "measured", "holds")
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
