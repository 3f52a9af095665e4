"""Experiment drivers: one per paper figure, plus ablations.

The throughput figures are rows of :class:`~repro.analysis.sweep.Sweep`.
"""

from .ablations import (
    colocation_ablation,
    component_ablation,
    latency_sensitivity,
    oversubscription_sweep,
    priority_policy_ablation,
    server_count_sweep,
    shared_cluster_sweep,
    straggler_sensitivity,
)
from .accuracy import (
    DEFAULT_SETTINGS,
    HyperSetting,
    fig11_p3_vs_dgc,
    fig15_asgd_vs_p3,
)
from .ascii_plot import ascii_plot
from .bandwidth import (
    FIG7_GRIDS,
    PAPER_PEAK_SPEEDUP,
    fig7_bandwidth_sweep,
    peak_speedups,
)
from .distributions import fig5_param_distribution, skew_statistics
from .scalability import FIG10_SIZES, fig10_scalability
from .sharding import (
    PLACEMENT_SIZES,
    PLACEMENTS,
    placement_sweep,
    skewed_strategies,
)
from .schedules import (
    ScheduleOutcome,
    fig4_schedule_comparison,
    fig6_granularity_comparison,
    schedule_figure,
)
from .bounds import (
    IterationBounds,
    baseline_crossover_gbps,
    iteration_bounds,
    p3_crossover_gbps,
    wire_bytes_per_direction,
)
from .calibration import (
    CalibrationReport,
    FaultCalibrationReport,
    calibrate,
    calibrate_faults,
    live_model_spec,
    predict_sim,
    run_inprocess,
    sim_bandwidth_gbps,
)
from .cache import SimCache, code_salt
from .robustness import degradation_report, fault_plan_for, robustness_sweep
from .runner import PointResult, SimPoint, effective_jobs, run_grid
from .sensitivity import sensitivity_scan, speedup_at
from .series import FigureData, Series, speedup
from .stats import SeedStats, speedup_stats, summarize, throughput_stats
from .storage import load_figure, save_figure
from .sweep import Sweep
from .tails import iteration_time_percentiles, tail_comparison
from .tenancy import (
    SWEEP_POLICIES,
    SWEEP_TENANTS,
    default_workload,
    run_tenant_scenario,
    tenancy_sweep,
)
from .slice_size import FIG12_SLICES, fig12_slice_size_sweep
from .utilization import (
    FIG8_9_CONFIGS,
    burstiness_comparison,
    fig8_baseline_utilization,
    fig9_p3_utilization,
    fig13_tensorflow_utilization,
    fig14_poseidon_utilization,
    utilization_trace,
)

__all__ = [
    "DEFAULT_SETTINGS",
    "IterationBounds",
    "baseline_crossover_gbps",
    "iteration_bounds",
    "p3_crossover_gbps",
    "sensitivity_scan",
    "speedup_at",
    "wire_bytes_per_direction",
    "FIG10_SIZES",
    "FIG12_SLICES",
    "PLACEMENTS",
    "PLACEMENT_SIZES",
    "FIG7_GRIDS",
    "PAPER_PEAK_SPEEDUP",
    "FIG8_9_CONFIGS",
    "FigureData",
    "HyperSetting",
    "ScheduleOutcome",
    "Series",
    "Sweep",
    "CalibrationReport",
    "FaultCalibrationReport",
    "ascii_plot",
    "burstiness_comparison",
    "calibrate",
    "calibrate_faults",
    "live_model_spec",
    "predict_sim",
    "run_inprocess",
    "sim_bandwidth_gbps",
    "colocation_ablation",
    "component_ablation",
    "fig10_scalability",
    "fig11_p3_vs_dgc",
    "fig12_slice_size_sweep",
    "fig13_tensorflow_utilization",
    "fig14_poseidon_utilization",
    "fig15_asgd_vs_p3",
    "fig4_schedule_comparison",
    "fig5_param_distribution",
    "fig6_granularity_comparison",
    "fig7_bandwidth_sweep",
    "fig8_baseline_utilization",
    "fig9_p3_utilization",
    "degradation_report",
    "fault_plan_for",
    "latency_sensitivity",
    "load_figure",
    "oversubscription_sweep",
    "peak_speedups",
    "placement_sweep",
    "robustness_sweep",
    "skewed_strategies",
    "SeedStats",
    "SimCache",
    "SimPoint",
    "PointResult",
    "code_salt",
    "effective_jobs",
    "run_grid",
    "iteration_time_percentiles",
    "save_figure",
    "server_count_sweep",
    "speedup_stats",
    "summarize",
    "tail_comparison",
    "throughput_stats",
    "priority_policy_ablation",
    "schedule_figure",
    "shared_cluster_sweep",
    "skew_statistics",
    "straggler_sensitivity",
    "speedup",
    "utilization_trace",
    "SWEEP_POLICIES",
    "SWEEP_TENANTS",
    "default_workload",
    "run_tenant_scenario",
    "tenancy_sweep",
]
