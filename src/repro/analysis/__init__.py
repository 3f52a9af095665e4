"""Experiment drivers: one per paper figure, plus ablations.

The throughput figures are rows of :class:`~repro.analysis.sweep.Sweep`;
the paper's claims about them are rows of :mod:`repro.analysis.claims`.

Every public name below is resolved on first use (PEP 562): importing
one driver module loads that module's imports, not every driver's (the
calibration drivers pull in the live cluster, the accuracy drivers the
numpy training stack).
"""

import importlib

# ``ascii_plot`` names both a submodule and the function it defines.
# Bound here so the function wins however the submodule gets imported.
from .ascii_plot import ascii_plot as ascii_plot

#: Submodule -> the public names it defines and this package re-exports.
_MODULE_EXPORTS = {
    "ablations": ("latency_sensitivity", "oversubscription_sweep",
                  "server_count_sweep", "shared_cluster_sweep",
                  "straggler_sensitivity"),
    "accuracy": ("DEFAULT_SETTINGS", "HyperSetting", "compare_systems",
                 "fig11_p3_vs_dgc", "fig15_asgd_vs_p3"),
    "allreduce": ("allreduce_sweep",),
    "ascii_plot": ("ascii_plot",),
    "bandwidth": ("FIG7_GRIDS", "fig7_bandwidth_sweep"),
    "bounds": ("IterationBounds", "baseline_crossover_gbps",
               "iteration_bounds", "p3_crossover_gbps",
               "wire_bytes_per_direction"),
    "cache": ("SimCache", "code_salt"),
    "calibration": ("CalibrationReport", "FaultCalibrationReport",
                    "calibrate", "calibrate_faults", "live_model_spec",
                    "predict_sim", "run_inprocess", "sim_bandwidth_gbps"),
    "distributions": ("fig5_param_distribution",),
    "robustness": ("fault_plan_for", "robustness_sweep"),
    "runner": ("PointResult", "SimPoint", "effective_jobs", "run_grid"),
    "scalability": ("FIG10_SIZES", "fig10_scalability"),
    "schedules": ("ScheduleOutcome", "fig4_schedule_comparison",
                  "fig6_granularity_comparison", "schedule_figure"),
    "sensitivity": ("sensitivity_scan",),
    "series": ("FigureData", "Series", "speedup"),
    "sharding": ("PLACEMENTS", "PLACEMENT_SIZES", "placement_sweep",
                 "skewed_strategies"),
    "slice_size": ("FIG12_SLICES", "fig12_slice_size_sweep"),
    "stats": ("SeedStats", "summarize"),
    "storage": ("load_figure", "save_figure"),
    "sweep": ("Sweep",),
    "tails": ("iteration_time_percentiles", "tail_comparison"),
    "tenancy": ("SWEEP_POLICIES", "SWEEP_TENANTS", "default_workload",
                "run_tenant_scenario", "tenancy_sweep"),
    "utilization": ("FIG8_9_CONFIGS", "fig8_baseline_utilization",
                    "fig9_p3_utilization", "fig13_tensorflow_utilization",
                    "fig14_poseidon_utilization", "utilization_trace"),
}

#: Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items()
            for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
