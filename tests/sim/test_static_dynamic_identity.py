"""There is one channel path; this file pins it to the two it replaced.

``golden/channel_signatures.json`` was generated by these tests
at the commit *before* ``repro.sim.network.Channel`` became one
implementation, when a fault plan, background load or a multi-job run
wired a generic event-per-hop channel and everything else wired static
closures with elided hops (``Channel.fuse_hop``).  Each entry is a
:func:`tests.scenarios.run_signature`: the sha256 of everything a
caller can observe, *in order*.  So
``test_static_run_equals_dynamic_run`` still says what its name says —
today's run equals the generic run of that commit —
with the generic side read from the file instead of executed (the ids
are kept because the test floor names them).  The same holds for the
configurations where a commitment has to be taken back: a rate change or
a NOISE burst on a receive channel that has committed arrivals.

Regenerate after an intentional change to the simulated timeline, and
commit the golden file with it::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/sim/test_static_dynamic_identity.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.models import toy_model
from repro.sim import ClusterConfig, ClusterSim
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan, LinkFault, StragglerFault
from repro.sim.network import (
    Channel,
    FifoQueue,
    Message,
    MsgKind,
    Role,
    Transport,
)
from repro.strategies import STRATEGY_FACTORIES
from repro.tenancy import JobSpec, MultiJobSim, TenancyConfig
from tests.scenarios import run_signature

GOLDEN = Path(__file__).parent / "golden" / "channel_signatures.json"

ITERATIONS, WARMUP = 4, 1

# Uneven layers of several 50k-parameter slices each, so NIC queues
# back up and RX channels see both idle gaps and incast.
MODEL = toy_model(layer_params=(120_000, 60_000, 260_000), name="toy-uneven")

CONFIGS = {
    "plain": dict(n_workers=4),
    "dedicated_servers": dict(n_workers=3, n_servers=2,
                              colocate_servers=False),
    "background": dict(n_workers=3, background_load=0.3,
                       background_burst_bytes=40_000),
    "oversubscribed": dict(n_workers=4, oversubscription=2.0),
    "two_tier": dict(n_workers=4, placement="two_tier", agg_group_size=2),
}


# With compute a hundred times faster the plain run is communication
# bound and lasts about 0.3 simulated seconds; fault schedules are given
# as fractions of that, and keep retuning through the whole run.
_T = 0.3


def _link(machine, factor, start, duration, period, direction, jitter=0.0):
    return LinkFault(machine=machine, rate_factor=factor, start=start * _T,
                     duration=duration * _T, period=period * _T,
                     jitter=jitter * _T, direction=direction)


# Long RX degradations that recover while arrivals are committed behind
# the head of line; both directions down to rate zero; NOISE bursts and
# faults (a straggler included) together.
_RX_RECOVERING = FaultPlan((_link(0, 0.1, 0.05, 0.1, 0.15, "rx"),
                            _link(1, 0.05, 0.08, 0.06, 0.13, "rx", 0.01),
                            _link(2, 0.15, 0.02, 0.12, 0.2, "rx")), seed=6)
_DOWN_BOTH = FaultPlan((_link(0, 0.0, 0.1, 0.05, 0.2, "both"),
                        _link(1, 0.0, 0.15, 0.03, 0.25, "both", 0.02),
                        _link(2, 0.0, 0.02, 0.01, 0.11, "rx")), seed=3)
_MIXED = FaultPlan((_link(0, 0.4, 0.05, 0.04, 0.1, "tx", 0.01),
                    _link(1, 0.25, 0.02, 0.06, 0.13, "rx", 0.02),
                    _link(0, 0.0, 0.07, 0.02, 0.17, "both"),
                    StragglerFault(worker=1, factor=2.0, start=0.1 * _T,
                                   duration=0.1 * _T, period=0.3 * _T)),
                   seed=4)
_COMM_BOUND = dict(n_workers=4, compute_scale=100.0)
RETUNED = {
    "rx_recovering": dict(_COMM_BOUND, fault_plan=_RX_RECOVERING),
    "down_both": dict(_COMM_BOUND, fault_plan=_DOWN_BOTH),
    "background_faults": dict(_COMM_BOUND, background_load=0.3,
                              background_burst_bytes=40_000,
                              fault_plan=_MIXED),
}


def _cases(configs: dict, strategies=None):
    for config_name, overrides in configs.items():
        for strategy_name, factory in STRATEGY_FACTORIES.items():
            if strategies is not None and strategy_name not in strategies:
                continue
            if config_name == "two_tier" and factory().async_updates:
                continue
            yield pytest.param(strategy_name, overrides,
                               id=f"{config_name}-{strategy_name}")


def _cluster(strategy_name: str, overrides: dict, **kwargs) -> ClusterSim:
    config = ClusterConfig(bandwidth_gbps=1.0, seed=3, **overrides)
    return ClusterSim(MODEL, STRATEGY_FACTORIES[strategy_name](), config,
                      trace_utilization=True, **kwargs)


def _run_signature(strategy_name: str, overrides: dict, **kwargs) -> str:
    cluster = _cluster(strategy_name, overrides, **kwargs)
    signature = run_signature(cluster, cluster.run(ITERATIONS, WARMUP))
    assert cluster.sim.pending == 0
    cluster.sim.check_invariants()
    return signature


def _tenancy_signature() -> str:
    """Six comm-bound jobs of three tenants arriving 31 ms apart on ten
    slots: every admission and completion retunes the jobs in flight."""
    jobs = [JobSpec(name=f"j{i}", tenant=f"t{i % 3}", model=MODEL,
                    strategy=("p3", "baseline")[i % 2], n_workers=2 + i % 2,
                    iterations=3 + i % 3, warmup=1, weight=1.0 + i % 3,
                    arrival_s=0.031 * i, seed=i) for i in range(6)]
    multi = MultiJobSim(jobs, TenancyConfig(
        n_slots=10, bandwidth_gbps=1.0, policy="weighted",
        compute_scale=300.0))
    result = multi.run()
    assert multi.sim.pending == 0
    multi.sim.check_invariants()
    return hashlib.sha256(repr({
        "makespan": repr(result.makespan_s),
        "events_processed": multi.sim.events_processed,
        "log": [(repr(e.t), e.kind, e.job) for e in result.log],
        "jobs": [(name, repr(job.admitted_s), repr(job.completed_s),
                  repr(job.result.throughput), job.result.iterations.records)
                 for name, job in sorted(result.jobs.items())],
    }).encode()).hexdigest()


def _check(case_id: str, signature: str) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden[case_id] = signature
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {case_id} in {GOLDEN}")
    assert signature == golden[case_id], case_id


@pytest.mark.parametrize("strategy_name,overrides", _cases(CONFIGS))
def test_static_run_equals_dynamic_run(request, strategy_name, overrides):
    _check(request.node.callspec.id,
           _run_signature(strategy_name, overrides))


@pytest.mark.parametrize("strategy_name,overrides",
                         _cases(RETUNED, ("baseline", "p3")))
def test_run_matches_golden(request, strategy_name, overrides):
    _check(request.node.callspec.id,
           _run_signature(strategy_name, overrides))


def test_multi_job_run_matches_golden():
    _check("tenancy-weighted", _tenancy_signature())


def test_debug_loop_matches_golden_on_the_rare_paths():
    """``events_processed`` gives back the credit of every un-elided hop
    and a retired completion is a cancelled entry like any other: the
    step-dispatched loop, which verifies the heap and the cancelled-entry
    counter as it goes, observes the default loop's run."""
    _check("background_faults-p3",
           _run_signature("p3", RETUNED["background_faults"],
                          sim=Simulator(debug=True)))


@pytest.mark.parametrize("strategy_name", ["baseline", "p3", "credit_p3"])
def test_split_run_equals_single_run(strategy_name):
    """``until=`` and ``max_events=`` stop between events; resuming must
    not lose a delivery waiting behind a fused RX's head of line."""
    whole = _cluster(strategy_name, CONFIGS["plain"])
    want = run_signature(whole, whole.run(ITERATIONS, WARMUP))

    split = _cluster(strategy_name, CONFIGS["plain"])
    split.start_run(ITERATIONS, WARMUP)
    end = whole.sim.now
    split.sim.run(until=0.3 * end)
    assert split.sim.now == 0.3 * end
    split.sim.run(max_events=501)
    split.sim.run(until=0.7 * end)
    split.sim.run()
    assert run_signature(split, split.collect()) == want


def test_direct_enqueue_on_busy_fused_rx_keeps_arrival_order():
    """A foreign producer's message joins a busy fused RX in arrival
    order: behind what has landed, ahead of what is committed but still
    on the link — as if every hop had been an event."""
    sim = Simulator()
    transport = Transport(sim, latency_s=1.0)
    received = []
    for machine in (0, 1):
        tx = Channel(sim, machine, "tx", 1000.0, FifoQueue(), lambda _: None,
                     overhead_bytes=0)
        rx = Channel(sim, machine, "rx", 100.0, FifoQueue(), lambda _: None,
                     overhead_bytes=0)
        transport.register(
            machine, tx, rx,
            lambda msg: received.append((msg.key, round(sim.now, 9))))
    rx = transport._rx[1]

    def send(key: int) -> None:
        transport.send(Message(MsgKind.PUSH, key, 100, 0, 0, 1, Role.SERVER))

    # 0.1 s on the TX, 1 s on the link, 1 s on the RX.  Keys 0-2 land at
    # 1.1, 1.2, 1.3 and keep the RX busy until 4.1; keys 3 and 4 leave
    # the TX at 1.5 and 1.9 towards a channel that is busy well past
    # their arrival (2.5, 2.9), so their hops are elided.
    for key in range(3):
        send(key)
    sim.schedule_at(1.4, send, 3)
    sim.schedule_at(1.8, send, 4)
    elided = []
    sim.schedule_at(1.95, lambda: elided.append(sim.events_processed))
    # At t=2 key 0 is in service, 1 and 2 have landed, 3 and 4 have not.
    sim.schedule_at(2.0, rx.enqueue,
                    Message(MsgKind.NOISE, 99, 100, 0, 1, 1, Role.WORKER))
    sim.run()
    assert received == [(0, 2.1), (1, 3.1), (2, 4.1), (99, 5.1),
                        (3, 6.1), (4, 7.1)]
    # Both elided hops were credited by 1.95, then given back and fired
    # as events: the count is the event-per-hop count, 2 scheduled sends
    # + 5 TX completions + 5 hops + 6 RX completions + probe + enqueue.
    assert sim.events_processed == 20 and sim.pending == 0
    # 2 sends, 5 TX completions, 3 landed hops, 2 credits, the probe.
    assert elided == [13]
    assert rx.messages_transferred == 6 and rx.bytes_transferred == 600
