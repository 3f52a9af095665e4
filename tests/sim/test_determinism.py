"""Fault randomness comes from generators derived from
``(FaultPlan.seed, fault_index)``: another plan seed diverges, and one
fault's draws do not depend on another's.  That the same config gives
byte-identical runs is checked on every draw of the sim arm
(``tests/integration/test_random_models.py``)."""

from __future__ import annotations

import pytest

from repro.sim import (
    ClusterConfig,
    ClusterSim,
    FaultPlan,
    LinkFault,
    RunResult,
    StragglerFault,
)
from repro.strategies import p3
from tests.scenarios import JITTERED_PLAN


def run(tiny_model, strategy, plan, plan_seed=None, cluster_seed=0) -> RunResult:
    if plan is not None and plan_seed is not None:
        plan = FaultPlan(plan.faults, seed=plan_seed)
    cfg = ClusterConfig(n_workers=4, bandwidth_gbps=0.5, fault_plan=plan,
                        seed=cluster_seed)
    cluster = ClusterSim(tiny_model, strategy, cfg, trace_utilization=True)
    return cluster.run(iterations=6, warmup=1)


def test_different_plan_seeds_diverge(tiny_model):
    """Jittered fault occurrences depend on the plan seed, so two seeds
    must yield different traces."""
    a = run(tiny_model, p3(), JITTERED_PLAN, plan_seed=13)
    b = run(tiny_model, p3(), JITTERED_PLAN, plan_seed=14)
    assert a.utilization.records != b.utilization.records
    assert a.mean_iteration_time != b.mean_iteration_time


def test_plan_seed_is_part_of_config_identity(tiny_model):
    p1 = FaultPlan(JITTERED_PLAN.faults, seed=13)
    p2 = FaultPlan(JITTERED_PLAN.faults, seed=14)
    assert p1 == FaultPlan(JITTERED_PLAN.faults, seed=13)
    assert p1 != p2
    assert (ClusterConfig(fault_plan=p1) == ClusterConfig(fault_plan=p1))
    assert (ClusterConfig(fault_plan=p1) != ClusterConfig(fault_plan=p2))


def test_injector_rngs_are_insensitive_to_fault_interleaving(tiny_model):
    """Each fault owns an independent RNG stream: adding an unrelated
    deterministic fault must not change another fault's jitter draws.

    We verify via a proxy: the jittered link fault alone produces the
    same activation count whether or not a jitter-free straggler runs
    alongside it."""
    link = LinkFault(machine=0, rate_factor=0.1, start=0.005, duration=0.004,
                     period=0.03, jitter=0.015)
    extra = StragglerFault(worker=0, factor=1.5, start=0.0, duration=0.01,
                           period=0.05)

    def flap_times(faults):
        cfg = ClusterConfig(n_workers=2, bandwidth_gbps=0.5,
                            fault_plan=FaultPlan(faults, seed=21), seed=0)
        cluster = ClusterSim(tiny_model, p3(), cfg)
        times = []
        injector = cluster.fault_injector
        orig = injector._activate

        def spy(spec, rng, occurrence):
            if spec is faults[0]:
                times.append(cluster.sim.now)
            orig(spec, rng, occurrence)

        injector._activate = spy
        cluster.run(iterations=4, warmup=1)
        return times

    alone = flap_times((link,))
    paired = flap_times((link, extra))
    # The paired run lasts a (slightly) different wall-clock time, so
    # compare the common prefix of occurrence times.
    n = min(len(alone), len(paired))
    assert n > 0
    assert alone[:n] == pytest.approx(paired[:n], abs=0.0)
