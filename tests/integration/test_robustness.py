"""The robustness sweep under injected faults: its plans, its
determinism and one direct simulation.

What the sweep claims (P3 degrades no worse than the baseline and keeps
its lead) is stated by the ``ext_faults_*`` rows of the claims ledger
(:mod:`repro.analysis.claims`), which tier-1 checks on the grid the
determinism test below runs.
"""

from __future__ import annotations

import pytest

from repro.analysis.robustness import fault_plan_for, robustness_sweep
from repro.sim import ClusterConfig, FaultPlan, simulate
from repro.strategies import baseline, p3

MODERATE = 0.75  # the harshest point of the default severity grid


def test_sweep_is_reproducible_bit_for_bit():
    """Same arguments, same seeds => identical figure, down to the last
    float; the fault-free column is each strategy's reference run."""
    sweep, again = (robustness_sweep(severities=(0.0, MODERATE), iterations=4,
                                     warmup=1) for _ in range(2))
    assert all(series.y[0] == pytest.approx(1.0) for series in sweep.series)
    assert sweep.notes == again.notes
    for a, b in zip(sweep.series, again.series):
        assert a.label == b.label
        assert list(a.x) == list(b.x)
        assert list(a.y) == list(b.y)


@pytest.mark.chaos
def test_chaos_sweep_same_seed_is_byte_identical_json(tmp_path):
    """Seeded-determinism regression: two sweeps over the lossy-channel
    fault kind with the same FaultPlan seed serialize to byte-identical
    JSON — occurrence jitter, goodput factors and grid execution all
    flow from the seed, nothing from wall clock or interleaving."""
    from repro.analysis.storage import save_figure

    kwargs = dict(severities=(0.0, MODERATE), kinds=("chaos",),
                  iterations=3, warmup=1, seed=3)
    fig_a = robustness_sweep(**kwargs)
    path_a = save_figure(fig_a, tmp_path / "a.json")
    path_b = save_figure(robustness_sweep(**kwargs), tmp_path / "b.json")
    assert path_a.read_bytes() == path_b.read_bytes()
    # Non-vacuity: the goodput degradation really reached the channels —
    # every strategy loses at least a little throughput at the harshest
    # severity (at 16 Gbps the cluster is compute-bound, so the loss is
    # small but must be nonzero).
    for series in fig_a.series:
        assert series.y[-1] < 1.0


def test_fault_plan_for_scales_with_iteration_time():
    plan_a = fault_plan_for(0.5, iteration_time=0.1)
    plan_b = fault_plan_for(0.5, iteration_time=0.2)
    for a, b in zip(plan_a.faults, plan_b.faults):
        assert b.start == pytest.approx(2 * a.start)
        if a.duration is not None:
            assert b.duration == pytest.approx(2 * a.duration)
    assert fault_plan_for(0.0, iteration_time=0.1) == FaultPlan((), seed=0)
    with pytest.raises(ValueError):
        fault_plan_for(1.5, iteration_time=0.1)
    with pytest.raises(ValueError):
        fault_plan_for(0.5, iteration_time=0.0)
    with pytest.raises(ValueError, match="unknown fault kind"):
        fault_plan_for(0.5, iteration_time=0.1, kinds=("straggler", "bogus"))


def test_moderate_plan_direct_simulation(tiny_model):
    """The dimensionless plan fitted to a small model's own timescale
    behaves the same way: P3 under faults keeps its lead over the
    baseline under the identical faults."""
    def run(strategy, plan):
        cfg = ClusterConfig(n_workers=2, bandwidth_gbps=16.0,
                            fault_plan=plan, seed=0)
        return simulate(tiny_model, strategy, cfg, iterations=4, warmup=1)

    iter_t = run(baseline(), None).mean_iteration_time
    plan = fault_plan_for(MODERATE, iter_t, n_workers=2)
    assert run(p3(), plan).throughput >= 0.995 * run(baseline(), plan).throughput
