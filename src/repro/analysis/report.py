"""End-to-end evaluation report generator.

Runs every figure driver and emits a markdown report with paper-vs-
measured rows — the programmatic source of EXPERIMENTS.md.  ``quick``
mode shrinks sweeps and training epochs for smoke runs.

Usage::

    python -m repro report [--quick] [--out report.md] [--jobs N] [--cache]
"""

from __future__ import annotations

from typing import Callable, List, Optional

from . import (
    burstiness_comparison,
    fig4_schedule_comparison,
    fig5_param_distribution,
    fig6_granularity_comparison,
    fig7_bandwidth_sweep,
    fig10_scalability,
    fig11_p3_vs_dgc,
    fig12_slice_size_sweep,
    fig13_tensorflow_utilization,
    fig14_poseidon_utilization,
    fig15_asgd_vs_p3,
    skew_statistics,
)
from .accuracy import DEFAULT_SETTINGS
from .bandwidth import PAPER_PEAK_SPEEDUP
from .cache import SimCache


def _section(title: str) -> List[str]:
    return ["", f"## {title}", ""]


def generate_report(quick: bool = False,
                    progress: Optional[Callable[[str], None]] = None,
                    jobs: int = 1,
                    cache: Optional[SimCache] = None) -> str:
    """Run all experiments; return the markdown report.

    ``jobs``/``cache`` parallelize and memoize the grid-based sweeps
    (fig7/fig10/fig12) without changing any reported number — see
    :mod:`repro.analysis.runner`.
    """

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    iters = 4 if quick else 5
    # Below ~8 epochs DGC is still in its sparsity warm-up and ASGD has
    # not converged, so even quick mode trains that long.
    epochs = 8 if quick else 16
    settings = DEFAULT_SETTINGS[:2] if quick else DEFAULT_SETTINGS
    lines: List[str] = ["# P3 reproduction report",
                        "",
                        f"Generated by `repro.analysis.report` "
                        f"({'quick' if quick else 'full'} mode)."]

    note("fig4/fig6 toy schedules")
    lines += _section("Figures 4 & 6 — toy schedules")
    f4 = fig4_schedule_comparison()
    ratio = f4["baseline"].stall_time / max(1e-9, f4["p3"].stall_time)
    lines.append(f"- Fig 4: inter-iteration stall baseline "
                 f"{f4['baseline'].stall_time:.2f}s vs P3 "
                 f"{f4['p3'].stall_time:.2f}s ({ratio:.1f}x reduction; "
                 f"paper's toy shows 2x).")
    f6 = fig6_granularity_comparison()
    saved = 1 - f6["sliced"].stall_time / f6["layer_granularity"].stall_time
    lines.append(f"- Fig 6: slicing cuts sync stall by {saved * 100:.0f}% "
                 f"(paper's toy: ~30% of total comm cost).")

    note("fig5 distributions")
    lines += _section("Figure 5 — parameter distributions")
    fig5_param_distribution()  # validates builders
    for name in ("resnet50", "vgg19", "sockeye"):
        s = skew_statistics(name)
        lines.append(f"- {name}: {int(s['n_layers'])} arrays, "
                     f"{s['total_mparams']:.1f}M params, largest array "
                     f"{s['max_share'] * 100:.1f}% of model.")

    lines += _section("Figure 7 — bandwidth vs throughput")
    models = ("resnet50", "vgg19") if quick else tuple(PAPER_PEAK_SPEEDUP)
    for name in models:
        note(f"fig7 {name}")
        fig = fig7_bandwidth_sweep(name, iterations=iters, jobs=jobs,
                                   cache=cache)
        lines.append(f"- {name}: peak P3 speedup "
                     f"{fig.notes['max_p3_speedup']:.2f}x at "
                     f"{fig.notes['max_p3_speedup_at_gbps']:g} Gbps "
                     f"(paper: {PAPER_PEAK_SPEEDUP[name]:.2f}x).")

    lines += _section("Figures 8 & 9 — network utilization")
    for name in (("vgg19",) if quick else ("resnet50", "vgg19", "sockeye")):
        note(f"fig8/9 {name}")
        cmp = burstiness_comparison(name)
        lines.append(
            f"- {name}: idle fraction {cmp['baseline']['idle_frac']:.2f} -> "
            f"{cmp['p3']['idle_frac']:.2f}; iteration "
            f"{cmp['baseline']['iteration_time_s'] * 1000:.0f} ms -> "
            f"{cmp['p3']['iteration_time_s'] * 1000:.0f} ms.")

    lines += _section("Figure 10 — scalability (10 Gbps)")
    for name in (("vgg19",) if quick else ("resnet50", "vgg19", "sockeye")):
        note(f"fig10 {name}")
        fig = fig10_scalability(name, values=(2, 4) if quick else (2, 4, 8, 16),
                                iterations=iters, jobs=jobs, cache=cache)
        lines.append(f"- {name}: max P3 speedup {fig.notes['max_p3_speedup']:.2f}x "
                     f"at {fig.notes['max_p3_speedup_at_size']} machines; "
                     f"P3 scaling efficiency "
                     f"{fig.notes['scaling_efficiency_p3']:.2f}.")

    note("fig11 accuracy")
    lines += _section("Figure 11 — P3 vs DGC accuracy")
    fig = fig11_p3_vs_dgc(settings=settings, epochs=epochs)
    lines.append(f"- final accuracy: P3 {fig.notes['p3_final_mean']:.3f} vs "
                 f"DGC {fig.notes['dgc_final_mean']:.3f}; mean drop "
                 f"{fig.notes['mean_accuracy_drop'] * 100:.2f}% "
                 f"(paper: ~0.4%).")

    lines += _section("Figure 12 — slice size")
    for name in (("resnet50",) if quick else ("resnet50", "vgg19", "sockeye")):
        note(f"fig12 {name}")
        sizes = (3_000, 50_000, 1_000_000) if quick else \
            (3_000, 10_000, 50_000, 200_000, 1_000_000)
        fig = fig12_slice_size_sweep(name, values=sizes, iterations=iters,
                                     jobs=jobs, cache=cache)
        lines.append(f"- {name}: best slice {fig.notes['best_slice_size']:,} "
                     f"params (paper: 50,000).")

    note("fig13/fig14 other frameworks")
    lines += _section("Figures 13 & 14 — other frameworks")
    f13 = fig13_tensorflow_utilization()
    lines.append(f"- TensorFlow-style (ResNet-50 @ 4 Gbps): outbound peak "
                 f"{f13.notes['outbound_peak_gbps']:.1f} Gbps, inbound idle "
                 f"{f13.notes['inbound_idle_frac']:.2f} — bursty, like MXNet.")
    f14 = fig14_poseidon_utilization()
    lines.append(f"- Poseidon WFBP (InceptionV3 @ 1 Gbps): outbound peak "
                 f"{f14.notes['outbound_peak_gbps']:.2f} Gbps, idle "
                 f"{f14.notes['outbound_idle_frac']:.2f} — bursty too.")

    note("fig15 ASGD")
    lines += _section("Figure 15 — ASGD vs P3")
    fig = fig15_asgd_vs_p3(epochs=epochs)
    lines.append(f"- final accuracy: P3 {fig.notes['p3_final']:.3f} vs ASGD "
                 f"{fig.notes['asgd_final']:.3f} (paper: 0.93 vs 0.88).")
    if "asgd_to_p3_time_ratio" in fig.notes:
        lines.append(f"- P3 reaches 80% accuracy "
                     f"{fig.notes['asgd_to_p3_time_ratio']:.1f}x sooner "
                     f"(paper: ~6x).")

    lines.append("")
    return "\n".join(lines)

