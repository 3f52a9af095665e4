"""Unit tests for NIC channels, queues and transport."""

from __future__ import annotations

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models import get_model
from repro.sim import ClusterConfig, ClusterSim
from repro.sim.engine import Simulator
from repro.sim.network import (
    Channel,
    FifoQueue,
    Message,
    MsgKind,
    PriorityQueue,
    Role,
    Transport,
    gbps_to_bytes_per_s,
    make_queue,
)
from repro.strategies import p3


def _msg(key=0, payload=1000, priority=0, src=0, dst=1, kind=MsgKind.PUSH):
    return Message(kind=kind, key=key, payload_bytes=payload,
                   priority=priority, src=src, dst=dst, dst_role=Role.SERVER)


# ----------------------------------------------------------------------
# Queues
# ----------------------------------------------------------------------
def test_fifo_queue_order():
    q = FifoQueue()
    msgs = [_msg(key=i) for i in range(5)]
    for m in msgs:
        q.push(m)
    assert [q.pop().key for _ in range(5)] == [0, 1, 2, 3, 4]


def test_priority_queue_orders_by_priority():
    q = PriorityQueue()
    q.push(_msg(key=0, priority=5))
    q.push(_msg(key=1, priority=1))
    q.push(_msg(key=2, priority=3))
    assert [q.pop().key for _ in range(3)] == [1, 2, 0]


def test_priority_queue_fifo_among_equal_priorities():
    q = PriorityQueue()
    for i in range(4):
        q.push(_msg(key=i, priority=7))
    assert [q.pop().key for _ in range(4)] == [0, 1, 2, 3]


def test_make_queue_factory():
    assert isinstance(make_queue("fifo"), FifoQueue)
    assert isinstance(make_queue("priority"), PriorityQueue)
    with pytest.raises(ValueError):
        make_queue("lifo")


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=80))
@settings(max_examples=60, deadline=None)
def test_property_priority_queue_is_stable_sort(priorities):
    q = PriorityQueue()
    for i, p in enumerate(priorities):
        q.push(_msg(key=i, priority=p))
    popped = [q.pop() for _ in range(len(priorities))]
    keys = [m.key for m in popped]
    expected = [i for _, i in sorted((p, i) for i, p in enumerate(priorities))]
    assert keys == expected


# One op per step: a priority pushes the next key at it, "pop" pops one
# message when any waits, "drain" pops every waiting message.  Three
# priorities and rarer drains keep several same-priority runs queued.
_QUEUE_OPS = st.lists(st.sampled_from([0, 1, 2, "pop", "pop", "drain"]),
                      max_size=60)


@given(_QUEUE_OPS)
@example([2, 0, 2, "drain"])                       # one priority, two runs
@example([1, 0, 1, "pop", 1, "drain"])             # a run split by a pop
@example([2, 2, 2, "pop", 2, 2, "drain"])          # extended after a pop
@example([1, 1, "drain", 1, 0, 1, "drain"])        # reopened after a drain
@settings(max_examples=300, deadline=None)
def test_property_priority_queue_interleaved_matches_reference(ops):
    """Pushes and pops in any interleaving pop in the order of a heap of
    per-message ``(priority, seq)`` pairs, and ``len`` and ``backing``
    count messages after every step."""
    q = PriorityQueue()
    ref: list = []
    popped, expected = [], []
    for i, op in enumerate(ops):
        if op == "pop" and ref:
            expected.append(heapq.heappop(ref)[1])
            popped.append(q.pop().key)
        elif op == "drain":
            while ref:
                expected.append(heapq.heappop(ref)[1])
                popped.append(q.pop().key)
        elif isinstance(op, int):
            heapq.heappush(ref, (op, i))
            q.push(_msg(key=i, priority=op))
        assert popped == expected
        assert len(q) == len(ref)
        assert bool(q.backing) == bool(ref)


# ----------------------------------------------------------------------
# Channel
# ----------------------------------------------------------------------
def _channel(sim, rate=1000.0, queue=None, overhead=0, cpu=0.0, done=None):
    done = done if done is not None else []
    ch = Channel(sim, machine=0, direction="tx", rate_bytes_per_s=rate,
                 queue=queue or FifoQueue(), on_complete=done.append,
                 overhead_bytes=overhead, per_message_cpu_s=cpu)
    return ch, done


def test_channel_occupancy_math():
    sim = Simulator()
    ch, _ = _channel(sim, rate=1000.0, overhead=100, cpu=0.5)
    assert ch.occupancy(_msg(payload=900)) == pytest.approx(1.0 + 0.5)


def test_channel_infinite_rate():
    sim = Simulator()
    ch, _ = _channel(sim, rate=None, cpu=0.25)
    assert ch.occupancy(_msg(payload=10**9)) == pytest.approx(0.25)


def test_channel_rejects_nonpositive_rate():
    sim = Simulator()
    with pytest.raises(ValueError):
        _channel(sim, rate=0.0)


def test_channel_serializes_messages():
    sim = Simulator()
    done = []
    ch, _ = _channel(sim, rate=1000.0, done=done)
    times = []
    ch.on_complete = lambda m: (done.append(m), times.append(sim.now))
    ch.enqueue(_msg(key=0, payload=1000))   # 1 s
    ch.enqueue(_msg(key=1, payload=2000))   # 2 s
    sim.run()
    assert [m.key for m in done] == [0, 1]
    assert times == pytest.approx([1.0, 3.0])


def test_enqueue_from_own_completion_waits_its_turn():
    """A completion callback that enqueues onto its own busy-between-
    messages channel starts the successor itself; ``finish`` must not
    start a second message on top of it."""
    sim = Simulator()
    times = {}
    ch, _ = _channel(sim, rate=1000.0)

    def on_complete(m):
        times[m.key] = sim.now
        if m.key == 1:
            ch.enqueue(_msg(key=3, payload=1000))

    ch.on_complete = on_complete
    ch.enqueue(_msg(key=1, payload=1000))
    ch.enqueue(_msg(key=2, payload=1000))
    sim.run()
    assert times == {1: 1.0, 2: 2.0, 3: 3.0}
    assert ch.busy_time == pytest.approx(3.0)
    assert ch.messages_transferred == 3


def test_channel_priority_reorders_pending_only():
    """The in-flight message is never preempted; queued ones reorder."""
    sim = Simulator()
    done = []
    ch = Channel(sim, 0, "tx", 1000.0, PriorityQueue(), done.append)
    ch.enqueue(_msg(key=0, priority=9, payload=1000))  # starts immediately
    ch.enqueue(_msg(key=1, priority=5, payload=1000))
    ch.enqueue(_msg(key=2, priority=1, payload=1000))
    sim.run()
    assert [m.key for m in done] == [0, 2, 1]


def test_channel_counters():
    sim = Simulator()
    ch, done = _channel(sim, rate=1000.0, overhead=50)
    ch.enqueue(_msg(payload=950))
    sim.run()
    assert ch.bytes_transferred == 1000
    assert ch.messages_transferred == 1
    assert ch.busy_time == pytest.approx(1.0)


def test_channel_traces_transmissions():
    sim = Simulator()
    records = []
    ch = Channel(sim, 3, "rx", 1000.0, FifoQueue(), lambda m: None,
                 overhead_bytes=0, trace=lambda *a: records.append(a))
    ch.enqueue(_msg(payload=500))
    sim.run()
    machine, direction, start, end, wire = records[0]
    assert (machine, direction) == (3, "rx")
    assert (start, end, wire) == (0.0, pytest.approx(0.5), 500)


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------
def _mesh(sim, n=2, rate=1000.0, latency=0.1, loopback=0.01):
    transport = Transport(sim, latency_s=latency, loopback_latency_s=loopback)
    delivered = {m: [] for m in range(n)}
    for m in range(n):
        tx = Channel(sim, m, "tx", rate, FifoQueue(), lambda _: None,
                     overhead_bytes=0)
        rx = Channel(sim, m, "rx", rate, FifoQueue(), lambda _: None,
                     overhead_bytes=0)
        transport.register(m, tx, rx, delivered[m].append)
    return transport, delivered


def test_transport_remote_delivery_includes_both_hops():
    sim = Simulator()
    transport, delivered = _mesh(sim, rate=1000.0, latency=0.1)
    transport.send(_msg(payload=1000, src=0, dst=1))
    sim.run()
    assert len(delivered[1]) == 1
    # tx 1 s + latency 0.1 s + rx 1 s
    assert delivered[1][0].deliver_time == pytest.approx(2.1)


def test_transport_loopback_bypasses_nic():
    sim = Simulator()
    transport, delivered = _mesh(sim, loopback=0.01)
    transport.send(_msg(payload=10**6, src=0, dst=0))
    sim.run()
    assert delivered[0][0].deliver_time == pytest.approx(0.01)


def test_transport_records_enqueue_time():
    sim = Simulator()
    transport, delivered = _mesh(sim)
    sim.schedule(5.0, transport.send, _msg(payload=100, src=0, dst=1))
    sim.run()
    assert delivered[1][0].enqueue_time == pytest.approx(5.0)


def test_gbps_conversion():
    assert gbps_to_bytes_per_s(8.0) == pytest.approx(1e9)


# ----------------------------------------------------------------------
# Queued state per message
# ----------------------------------------------------------------------
@pytest.mark.perf
@pytest.mark.parametrize("model, workers, iterations, warmup, entries, "
                         "messages, events", [
    ("vgg19", 4, 2, 1, 662, 34_824, 122_492),
    ("resnet50", 32, 1, 0, 5_811, 39_866, 131_831),
])
def test_tx_heap_entries_per_run(model, workers, iterations, warmup, entries,
                                 messages, events):
    """P3's TX queues hold one heap entry per run of same-priority pushes
    (a layer's slices, a shard's reply to its workers), not one per
    message: the count of entries opened, read off each queue's sequence
    counter, is pinned at a point of each shape, with the messages sent
    and the events fired, which the run structure does not change."""
    cluster = ClusterSim(get_model(model), p3(),
                         ClusterConfig(n_workers=workers, bandwidth_gbps=10.0,
                                       seed=0))
    result = cluster.run(iterations=iterations, warmup=warmup)
    txs = cluster.tx_channels
    assert all(isinstance(tx.queue, PriorityQueue) and not tx.queue.backing
               for tx in txs)
    assert sum(next(tx.queue._seq) for tx in txs) == entries
    assert sum(tx.messages_transferred for tx in txs) == messages
    assert result.events_processed == events
