"""What importing one part of the package loads, checked in fresh
interpreters.  A package ``__init__`` resolves its re-exports on first
use and a module imports what it uses, so an entry point pays only for
its own closure: the simulator does not load the live cluster, the
training stack or the figure drivers, and the CLI parser loads none of
the substrates."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Set

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter; return its last output line."""
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    return out.stdout.strip().splitlines()[-1]


def loaded_after(statement: str) -> Set[str]:
    return set(json.loads(fresh(
        f"import json, sys; {statement}; "
        "print(json.dumps(sorted(sys.modules)))")))


def under(loaded: Set[str], *packages: str) -> Set[str]:
    return {m for m in loaded for p in packages
            if m == p or m.startswith(p + ".")}


OTHER_SUBSTRATES = tuple(f"repro.{name}" for name in (
    "analysis", "live", "training", "kvstore", "allreduce", "cosim"))


@pytest.mark.parametrize("module", ["repro.sim", "repro.tenancy"])
def test_simulator_loads_no_other_substrate(module):
    loaded = loaded_after(f"import {module}")
    assert module in loaded
    assert not under(loaded, *OTHER_SUBSTRATES, "asyncio")


def test_obs_loads_no_numpy():
    loaded = loaded_after("import repro.obs")
    assert "repro.obs" in loaded
    assert not under(loaded, "numpy")


def test_cli_loads_no_substrate():
    loaded = loaded_after("import repro.cli")
    assert not under(loaded, "repro.sim", "repro.live", "repro.training")


#: ``repro.analysis``'s public names: those the package re-exported when
#: it imported every driver module eagerly, less the drivers no ledger
#: row, CLI command or benchmark reads any more, plus the allreduce and
#: co-simulation drivers.
ANALYSIS_NAMES = [
    "CalibrationReport", "DEFAULT_SETTINGS", "FIG10_SIZES", "FIG12_SLICES",
    "FIG7_GRIDS", "FIG8_9_CONFIGS", "FaultCalibrationReport", "FigureData",
    "HyperSetting", "IterationBounds", "PLACEMENTS", "PLACEMENT_SIZES",
    "PointResult", "SWEEP_POLICIES", "SWEEP_TENANTS", "ScheduleOutcome",
    "SeedStats", "Series", "SimCache", "SimPoint", "Sweep",
    "allreduce_sweep", "ascii_plot",
    "baseline_crossover_gbps", "calibrate", "calibrate_faults", "code_salt",
    "compare_systems",
    "default_workload", "effective_jobs",
    "fault_plan_for", "fig10_scalability", "fig11_p3_vs_dgc",
    "fig12_slice_size_sweep", "fig13_tensorflow_utilization",
    "fig14_poseidon_utilization", "fig15_asgd_vs_p3",
    "fig4_schedule_comparison", "fig5_param_distribution",
    "fig6_granularity_comparison", "fig7_bandwidth_sweep",
    "fig8_baseline_utilization", "fig9_p3_utilization", "iteration_bounds",
    "iteration_time_percentiles", "latency_sensitivity", "live_model_spec",
    "load_figure", "oversubscription_sweep", "p3_crossover_gbps",
    "placement_sweep", "predict_sim", "robustness_sweep", "run_grid",
    "run_inprocess", "run_tenant_scenario", "save_figure", "schedule_figure",
    "sensitivity_scan", "server_count_sweep", "shared_cluster_sweep",
    "sim_bandwidth_gbps", "skewed_strategies", "speedup",
    "straggler_sensitivity", "summarize", "tail_comparison", "tenancy_sweep",
    "utilization_trace", "wire_bytes_per_direction",
]


def test_analysis_surface_is_unchanged():
    import repro.analysis as analysis

    assert analysis.__all__ == ANALYSIS_NAMES
    assert set(ANALYSIS_NAMES) <= set(dir(analysis))


def test_analysis_names_resolve_to_their_defining_module():
    """In a fresh interpreter, where nothing is resolved yet: every name
    is the very object the submodule it comes from holds (``ascii_plot``
    the function, although it also names a submodule)."""
    wrong = json.loads(fresh(
        "import importlib, json, repro.analysis as a; "
        "print(json.dumps([n for n in a.__all__ if getattr(a, n) is not "
        "getattr(importlib.import_module('repro.analysis.' + a._EXPORTS[n]),"
        " n)]))"))
    assert wrong == []
    assert fresh("import repro.analysis.ascii_plot, repro.analysis as a; "
                 "print(callable(a.ascii_plot))") == "True"


def test_top_level_surface():
    assert fresh(
        "from repro import ClusterConfig, RunResult, simulate, models, "
        "strategies; import repro, repro.sim as s; "
        "print(simulate is s.simulate and ClusterConfig is s.ClusterConfig "
        "and RunResult is s.RunResult and models is repro.models "
        "and strategies is repro.strategies)") == "True"
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None
    with pytest.raises(AttributeError):
        repro.no_such_name
