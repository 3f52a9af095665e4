"""Determinism and round-trip tests for the sweep runner and cache.

The contract under test: ``run_grid`` returns *identical* results for
any ``jobs`` value and any cache state, so figure drivers serialize to
byte-identical JSON however they were executed.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro
from repro import analysis
from repro.analysis import (
    FigureData,
    SimCache,
    fig7_bandwidth_sweep,
    save_figure,
)
from repro.analysis import runner
from repro.analysis.cache import SALT_PACKAGES, code_salt
from repro.analysis.runner import (
    PointResult,
    SimPoint,
    effective_jobs,
    execute_point,
    run_grid,
)
from repro.analysis.stats import _across_seeds
from repro.sim import ClusterConfig
from repro.sim.faults import (
    FaultPlan,
    LinkFault,
    ServerStallFault,
    StragglerFault,
)
from repro.strategies import baseline, credit_p3, p3, p3_with_policy

QUICK = dict(n_workers=2, bandwidth_gbps=4.0)


def _points(n=3):
    return [
        SimPoint("resnet50", strat, ClusterConfig(**QUICK), iterations=3,
                 warmup=1)
        for strat in (baseline(), p3(), p3(slice_params=10_000))
    ][:n]


# ----------------------------------------------------------------------
# Document round-trips
# ----------------------------------------------------------------------
def test_simpoint_doc_round_trip():
    point = SimPoint("vgg19", p3(), ClusterConfig(n_workers=8, seed=3),
                     iterations=4, warmup=2)
    doc = json.loads(json.dumps(point.to_doc()))
    assert SimPoint.from_doc(doc) == point


def test_simpoint_doc_round_trip_with_fault_plan():
    plan = FaultPlan((
        StragglerFault(worker=1, factor=2.0, start=0.5),
        LinkFault(machine=0, rate_factor=0.25, start=1.0, duration=0.5),
        ServerStallFault(server=0, start=2.0, duration=0.1, period=1.0),
    ), seed=7)
    cfg = ClusterConfig(n_workers=4, fault_plan=plan,
                        straggler_factors=(1.0, 1.5, 1.0, 1.0))
    point = SimPoint("resnet50", baseline(), cfg, iterations=3, warmup=1)
    doc = json.loads(json.dumps(point.to_doc()))
    assert SimPoint.from_doc(doc) == point


def test_point_result_doc_round_trip():
    result = PointResult(throughput=123.456789012345,
                         mean_iteration_time=0.1 + 0.2,
                         events_processed=98765)
    doc = json.loads(json.dumps(result.to_doc()))
    assert PointResult.from_doc(doc) == result


# ----------------------------------------------------------------------
# Job clamping
# ----------------------------------------------------------------------
def test_effective_jobs_clamps_to_cpus(monkeypatch):
    monkeypatch.setattr(runner, "available_cpus", lambda: 2)
    assert effective_jobs(8) == 2
    assert effective_jobs(1) == 1


def test_effective_jobs_clamps_to_tasks(monkeypatch):
    monkeypatch.setattr(runner, "available_cpus", lambda: 16)
    assert effective_jobs(8, n_tasks=3) == 3
    assert effective_jobs(8, n_tasks=0) == 1


def test_effective_jobs_rejects_nonpositive():
    with pytest.raises(ValueError):
        effective_jobs(0)


# ----------------------------------------------------------------------
# Determinism: serial vs pool vs cache
# ----------------------------------------------------------------------
def test_run_grid_pool_matches_serial(monkeypatch):
    """A real 4-process pool returns bit-identical results to serial."""
    points = _points()
    serial = run_grid(points, jobs=1)
    monkeypatch.setattr(runner, "available_cpus", lambda: 4)
    pooled = run_grid(points, jobs=4)
    assert pooled == serial  # dataclass equality => exact float equality


def test_run_grid_cache_hits_match_misses(tmp_path):
    points = _points()
    cache = SimCache(tmp_path / "cache")
    cold = run_grid(points, cache=cache)
    assert cache.stats() == {"hits": 0, "misses": len(points)}
    warm_cache = SimCache(tmp_path / "cache")
    warm = run_grid(points, cache=warm_cache)
    assert warm_cache.stats() == {"hits": len(points), "misses": 0}
    assert warm == cold
    assert cold == run_grid(points)  # and both match no-cache execution


def test_run_grid_partial_hits_preserve_order(tmp_path):
    cache = SimCache(tmp_path / "cache")
    points = _points(3)
    run_grid(points[:1], cache=cache)  # prime only the first point
    cache2 = SimCache(tmp_path / "cache")
    results = run_grid(points, cache=cache2)
    assert cache2.stats() == {"hits": 1, "misses": 2}
    assert results == run_grid(points)


def _blob(out, path: Path) -> bytes:
    """A driver's output as bytes: the saved figure, else its repr."""
    if isinstance(out, FigureData):
        return save_figure(out, path).read_bytes()
    return repr(out).encode()


def _assert_serial_pool_cache_identical(driver, kwargs, tmp_path, monkeypatch):
    serial = driver(**kwargs)
    cache = SimCache(tmp_path / "cache")
    monkeypatch.setattr(runner, "available_cpus", lambda: 4)
    pool = driver(**kwargs, jobs=2, cache=cache)
    # A cold cache hits only if the driver simulates one point twice.
    assert cache.stats()["misses"] > 0 and cache.stats()["hits"] == 0
    warm_cache = SimCache(tmp_path / "cache")
    warm = driver(**kwargs, jobs=2, cache=warm_cache)
    assert warm_cache.stats() == {"hits": sum(cache.stats().values()),
                                  "misses": 0}
    blobs = [_blob(out, tmp_path / f"{name}.json")
             for name, out in (("serial", serial), ("pool", pool),
                               ("warm", warm))]
    assert blobs[0] == blobs[1] == blobs[2]


def test_figure_bytes_identical_serial_pool_cache(tmp_path, monkeypatch):
    """The acceptance property: serialized figures match byte for byte."""
    _assert_serial_pool_cache_identical(
        fig7_bandwidth_sweep,
        dict(model_name="resnet50", values=(4.0, 10.0), n_workers=2,
             iterations=3),
        tmp_path, monkeypatch)


TOY = dict(model_name="toy3", iterations=3)
COLUMN = dict(TOY, values=(2.0,))


@pytest.mark.parametrize("driver, kwargs", [
    # Everything that joined the grid path with the sweeps: a row of the
    # table, the ablations that are Figure 7 columns with their own
    # strategies or cluster, the seed spread, and the figures that
    # arrange their own grid.
    pytest.param(analysis.straggler_sensitivity, dict(TOY, values=(1.0, 2.0)),
                 id="straggler_sensitivity"),
    pytest.param(analysis.fig7_bandwidth_sweep,
                 dict(COLUMN, strategies=(p3(), p3_with_policy("reverse"))),
                 id="fig7-policies"),
    pytest.param(analysis.fig7_bandwidth_sweep, dict(COLUMN, colocate_servers=False),
                 id="fig7-dedicated_ps"),
    pytest.param(_across_seeds, dict(TOY, values=(0, 1), bandwidth_gbps=2.0),
                 id="across_seeds"),
    pytest.param(analysis.fig7_bandwidth_sweep,
                 dict(COLUMN, strategies=(p3(), credit_p3(2)), oversubscription=2.0),
                 id="fig7-credit"),
    pytest.param(analysis.sensitivity_scan,
                 dict(TOY, sweeps={"latency_s": (1e-5, 5e-4)}), id="sensitivity_scan"),
    pytest.param(analysis.placement_sweep,
                 dict(TOY, cluster_sizes=(4, 8), n_servers=2, agg_group_size=2),
                 id="placement_sweep"),
    pytest.param(analysis.robustness_sweep, dict(TOY, severities=(0.0, 0.5)),
                 id="robustness_sweep"),
])
def test_every_grid_driver_identical_serial_pool_cache(driver, kwargs,
                                                       tmp_path, monkeypatch):
    _assert_serial_pool_cache_identical(driver, kwargs, tmp_path, monkeypatch)


# ----------------------------------------------------------------------
# Cache keying
# ----------------------------------------------------------------------
def test_cache_distinguishes_points(tmp_path):
    cache = SimCache(tmp_path / "cache")
    a, b = _points(2)
    run_grid([a], cache=cache)
    assert cache.get(b.to_doc()) is None
    assert cache.get(a.to_doc()) is not None


def test_cache_salt_invalidates(tmp_path):
    """A different code salt must never serve results from the old one."""
    point = _points(1)[0]
    doc = point.to_doc()
    cache_v1 = SimCache(tmp_path / "cache", salt="v1")
    cache_v1.put(doc, execute_point(point).to_doc())
    assert SimCache(tmp_path / "cache", salt="v1").get(doc) is not None
    assert SimCache(tmp_path / "cache", salt="v2").get(doc) is None


def test_code_salt_covers_every_package_a_simulated_point_imports():
    """An edit to anything `build_plan` or the key planner imports must
    start a fresh cache subtree (`repro.placement` used not to)."""
    root = Path(repro.__file__).parent
    for module in ("sim/cluster.py", "strategies/base.py",
                   "placement/keyplan.py", "placement/plan.py"):
        imported = set(re.findall(r"^\s*from \.\.(\w+)",
                                  (root / module).read_text(), re.M))
        assert imported <= set(SALT_PACKAGES), module


def test_code_salt_is_stable_and_hexlike():
    salt = code_salt()
    assert salt == code_salt()
    assert len(salt) == 64 and int(salt, 16) >= 0


def test_cache_tolerates_corrupt_entry(tmp_path):
    cache = SimCache(tmp_path / "cache")
    point = _points(1)[0]
    doc = point.to_doc()
    cache.put(doc, execute_point(point).to_doc())
    cache.path_for(doc).write_text("{not json")
    fresh = SimCache(tmp_path / "cache")
    assert fresh.get(doc) is None  # corrupt entry reads as a miss
    assert fresh.stats()["misses"] == 1
