"""Experiment drivers: one per paper figure, plus ablations.

The throughput figures are rows of :class:`~repro.analysis.sweep.Sweep`;
the paper's claims about them are rows of :mod:`repro.analysis.claims`.
"""

import types as _types

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
from .bandwidth import FIG7_GRIDS, fig7_bandwidth_sweep
from .distributions import fig5_param_distribution
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
    fig8_baseline_utilization,
    fig9_p3_utilization,
    fig13_tensorflow_utilization,
    fig14_poseidon_utilization,
    utilization_trace,
)

#: Every public name imported above; the submodules are not re-exported.
__all__ = sorted(name for name, value in vars().items()
                 if not (name.startswith("_") or isinstance(value, _types.ModuleType)))
