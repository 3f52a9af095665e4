"""Every delivery path reaches the endpoint seams, stamped at delivery.

A message reaches its endpoint by one of several paths: a loopback
event, an RX completion whose hop was elided (committed on arrival), an
RX completion behind a real link-latency hop, a hop out of the shared
fabric, or an RX completion re-timed by ``Channel.set_rate``.  Whichever
it took, the endpoint must see ``msg.deliver_time == sim.now``, the
per-instance ``on_message`` seam must be looked up for it, and an
attached :class:`InvariantMonitor` must see it through the ``_on_param``
/ ``_on_push`` seams it wraps.  The points below are deterministic and
each one exercises the path it is named for (asserted, not assumed).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.models import toy_model
from repro.sim import ClusterConfig, ClusterSim, FaultPlan, InvariantMonitor
from repro.sim.faults import LinkFault
from repro.sim.network import MsgKind
from repro.strategies import get_strategy

MODEL = toy_model(layer_params=(120_000, 60_000, 260_000), name="toy-uneven")

# Communication bound (compute a hundred times faster), so receive
# channels see both incast and idle gaps; the RX degradations recover
# while arrivals are committed behind the head of line.
_COMM = dict(bandwidth_gbps=1.0, compute_scale=100.0, seed=3)
_RX_FAULTS = FaultPlan((
    LinkFault(machine=0, rate_factor=0.1, start=0.045, duration=0.03,
              period=0.07, direction="rx"),
    LinkFault(machine=1, rate_factor=0.0, start=0.05, duration=0.015,
              period=0.06, direction="rx")), seed=6)

POINTS = {
    "colocated": ("p3", dict(_COMM, n_workers=4, fault_plan=_RX_FAULTS)),
    "oversubscribed": ("slicing", dict(_COMM, n_workers=4,
                                       oversubscription=2.0)),
    "background": ("baseline", dict(_COMM, n_workers=3, background_load=0.3,
                                    background_burst_bytes=40_000)),
    "two_tier": ("p3", dict(_COMM, n_workers=4, placement="two_tier",
                            agg_group_size=2)),
    # One machine: every message is a loopback, so the seams see no
    # remote delivery at all.
    "asgd_one_worker": ("asgd", dict(_COMM, n_workers=1)),
}

# Which points must exercise which path.
EXPECTED_PATHS = {
    "colocated": {"loopback", "fused", "hop", "retimed"},
    "oversubscribed": {"loopback", "fused", "fabric"},
    "background": {"loopback", "fused", "hop"},
    "two_tier": {"loopback", "fused", "hop"},
    "asgd_one_worker": {"loopback"},
}


def _drive(strategy: str, overrides: dict):
    cluster = ClusterSim(MODEL, get_strategy(strategy),
                         ClusterConfig(**overrides))
    monitor = InvariantMonitor(cluster)
    sim = cluster.sim
    paths: Counter = Counter()
    received: Counter = Counter()   # (endpoint type, kind) -> messages
    seams: Counter = Counter()      # monitor seam -> calls

    # Messages whose link-latency hop fired as an event (the rest of
    # the remote ones were committed on arrival).  Holding the message
    # keeps its id() from being reused.
    hopped = {}
    monitored_step = sim.step

    def step() -> bool:
        fn, args = sim._heap[0][2:4]
        if getattr(fn, "__name__", "") == "land":
            hopped[id(args[0])] = args[0]
        return monitored_step()

    sim.step = step

    # Machines whose RX has been retuned (``Channel.set_rate``).
    retuned = set()
    for rx in cluster.rx_channels:
        def set_rate(rate, _rx=rx, _set=rx.set_rate) -> None:
            retuned.add(_rx.machine)
            _set(rate)

        rx.set_rate = set_rate

    def paths_of(msg) -> tuple:
        if msg.src == msg.dst:
            return ("loopback",)
        tags = ["hop" if id(msg) in hopped else "fused"]
        if cluster.transport.fabric is not None:
            tags.append("fabric")
        if msg.dst in retuned:
            tags.append("retimed")
        return tuple(tags)

    def watch(endpoint) -> None:
        on_message = endpoint.on_message
        name = type(endpoint).__name__

        def seen(msg) -> None:
            assert msg.deliver_time == sim.now, (name, msg)
            paths.update(paths_of(msg))
            received[name, msg.kind] += 1
            on_message(msg)

        endpoint.on_message = seen

    def count(endpoint, seam: str) -> None:
        wrapped = getattr(endpoint, seam)

        def counted(msg) -> None:
            seams[seam] += 1
            wrapped(msg)

        setattr(endpoint, seam, counted)

    for worker in cluster.workers:
        watch(worker)
        count(worker, "_on_param")
    for node in cluster.servers + cluster.aggregators:
        watch(node)
        count(node, "_on_push")
    cluster.run(iterations=3, warmup=1)
    monitor.assert_all_final()
    return monitor, paths, received, seams


@pytest.mark.parametrize("point", sorted(POINTS))
def test_every_delivery_path_reaches_the_seams(point):
    strategy, overrides = POINTS[point]
    monitor, paths, received, seams = _drive(strategy, overrides)

    assert EXPECTED_PATHS[point] <= {p for p, n in paths.items() if n}, paths
    # Every message the transport accepted reached a watched endpoint
    # (background NOISE ends at the wire or the RX, never at one).
    assert (paths["loopback"] + paths["fused"] + paths["hop"]
            == monitor.summary()["messages_sent"])

    params = received["SimWorker", MsgKind.PARAM]
    pushes = (received["SimServerShard", MsgKind.PUSH]
              + received["SimAggregator", MsgKind.PUSH])
    assert params > 0 and pushes > 0
    assert seams["_on_param"] == params
    assert seams["_on_push"] == pushes
    assert monitor.summary()["pushes_delivered"] == pushes
