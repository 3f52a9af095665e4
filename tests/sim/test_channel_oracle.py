"""One TX -> RX pair against a serializer that has no engine.

The oracle below knows nothing of events, heaps or commitments: a FIFO
serializer is the integral of a piecewise-constant rate timeline, CPU
first and then bytes.  The channel — closures, elided hops, un-eliding,
in-place retiming — must deliver the same messages in the same order at
the same times, whatever mix of arrivals, direct RX enqueues (NOISE) and
rate changes it is given, including rate changes issued from inside its
own delivery callback, down to zero and up to infinite.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.network import (
    Channel,
    Message,
    MsgKind,
    Role,
    Transport,
    make_queue,
)

RATE = 7e5          # bytes/s; not a round number, so times do not align
CPU = 1.3e-6
LATENCY = 2e-4
OVERHEAD = 64
INF = float("inf")


def serve(jobs, timeline, on_done=lambda index, done: (),
          first=lambda key: True):
    """``jobs``: ``(ready, wire_bytes, key)`` in arrival order.
    ``timeline``: ``(time, rate)`` changes after the initial ``RATE``;
    ``on_done(index, done)`` may return more of them, not earlier than
    ``done``.  ``first(key)``: the job's arrival is seen before a change
    at the same instant.  Returns ``(key, start, done)`` per job."""
    timeline = sorted(timeline, key=_when)

    def rate_at(t, before=False):
        rate = RATE
        for when, new in timeline:
            if when < t or (when == t and not before):
                rate = new
        return rate

    out, free = [], 0.0
    for index, (ready, wire_bytes, key) in enumerate(jobs):
        start = max(ready, free)
        # A message that starts on an infinite link owes no bytes; one
        # that arrives as the link leaves infinite is free if it is seen
        # first (a change *to* infinite forgives the bytes either way).
        before = start == ready and first(key)
        left = 0.0 if rate_at(start, before) is None else float(wire_bytes)
        t = start + CPU
        while left > 0:
            rate = rate_at(t)
            until = min((when for when, _ in timeline if when > t),
                        default=INF)
            if rate is None:
                break
            if rate * (until - t) >= left:
                t += left / rate
                break
            assert until < INF, "the link never recovers"
            left -= rate * (until - t)
            t = until
        out.append((key, start, t))
        free = t
        timeline = sorted([*timeline, *on_done(index, t)], key=_when)
    return out


def _when(change):
    return change[0]


def _change(rate, delay):
    """A rate change as timeline entries relative to its own time: the
    new rate, and the recovery that follows a down or infinite link."""
    if rate in (0.0, None):
        return [(0.0, rate), (delay, RATE)]
    return [(0.0, rate)]


RATES = st.sampled_from((2 * RATE, RATE / 2, 0.0, None))
DELAYS = st.floats(1e-4, 5e-3)
SENDS = st.lists(st.tuples(st.sampled_from((0.0, 0.0, 3e-4, 2e-3, 9e-3)),
                           st.integers(100, 4000)),
                 min_size=1, max_size=40)
NOISE = st.lists(st.tuples(st.floats(0.0, 0.08), st.integers(100, 4000)),
                 max_size=8)
SCHEDULED = st.lists(st.tuples(st.floats(0.0, 0.08),
                               st.sampled_from(("tx", "rx")), RATES, DELAYS),
                     max_size=6)
FROM_DELIVER = st.dictionaries(st.integers(0, 30), st.tuples(RATES, DELAYS),
                               max_size=4)


def _distinct(times, gap=1e-9):
    times = sorted(times)
    return all(b - a > gap for a, b in zip(times, times[1:]))


def _leaves_infinite(timeline):
    """When the rate changes away from infinite."""
    changes = sorted(timeline, key=_when)
    return [when for (when, _), (_, prev) in zip(changes,
                                                 [(0.0, RATE), *changes])
            if prev is None]


@settings(max_examples=300, deadline=None)
# An infinite RX link recovers at the instant a NOISE message arrives.
@example(sends=[(0.0, 100)], noise=[(0.00390625, 100)],
         scheduled=[(0.0, "rx", None, 0.00390625)], from_deliver={})
# The same on TX: a send as the link recovers.
@example(sends=[(0.0, 100), (2e-3, 100)], noise=[],
         scheduled=[(0.0, "tx", None, 2e-3)], from_deliver={})
@given(sends=SENDS, noise=NOISE, scheduled=SCHEDULED,
       from_deliver=FROM_DELIVER)
def test_pair_matches_rate_timeline_oracle(sends, noise, scheduled,
                                           from_deliver):
    # ---- the oracle ---------------------------------------------------
    tx_timeline = [(at + dt, rate) for at, side, new, delay in scheduled
                   if side == "tx" for dt, rate in _change(new, delay)]
    rx_timeline = [(at + dt, rate) for at, side, new, delay in scheduled
                   if side == "rx" for dt, rate in _change(new, delay)]
    # Simultaneous changes, like simultaneous producers below, have no
    # order a serializer could know.
    assume(_distinct([when for when, _ in tx_timeline + rx_timeline]))
    at, tx_jobs = 0.0, []
    for key, (gap, payload) in enumerate(sends):
        at += gap
        tx_jobs.append((at, payload + OVERHEAD, key))
    sent = serve(tx_jobs, tx_timeline)
    rx_jobs = sorted(
        [(done + LATENCY, wire, key)
         for (key, _, done), (_, wire, _) in zip(sent, tx_jobs)]
        + [(when, payload + OVERHEAD, -1 - i)
           for i, (when, payload) in enumerate(noise)])
    assume(_distinct([ready for ready, _, _ in rx_jobs]))
    # The engine runs same-instant events in schedule order.  Every send
    # and NOISE enqueue is scheduled before the run, so it precedes any
    # change; a delivered message's arrival is scheduled mid-run, in an
    # order the oracle does not model.  That order decides its cost only
    # if the link leaves infinite at that instant.
    assume(not any(abs(ready - when) <= 1e-9
                   for ready, _, key in rx_jobs if key >= 0
                   for when in _leaves_infinite(rx_timeline)))

    def retune(index, done):
        if index not in from_deliver:
            return ()
        return [(done + dt, rate)
                for dt, rate in _change(*from_deliver[index])]

    want = serve(rx_jobs, rx_timeline, retune, first=lambda key: key < 0)

    # ---- the channel --------------------------------------------------
    sim = Simulator()
    transport = Transport(sim, latency_s=LATENCY)
    got = []
    channels = {}

    def apply(channel, new, delay):
        channel.set_rate(new)
        if new in (0.0, None):
            sim.schedule(delay, channel.set_rate, RATE)

    def deliver(msg):
        if len(got) in from_deliver:
            apply(channels["rx"], *from_deliver[len(got)])
        got.append((msg.key, sim.now))

    for machine in (0, 1):
        tx = Channel(sim, machine, "tx", RATE, make_queue("fifo"),
                     lambda _m: None, overhead_bytes=OVERHEAD,
                     per_message_cpu_s=CPU)
        rx = Channel(sim, machine, "rx", RATE, make_queue("fifo"),
                     lambda _m: None, overhead_bytes=OVERHEAD,
                     per_message_cpu_s=CPU)
        transport.register(machine, tx, rx, deliver)
    channels["tx"], channels["rx"] = transport._tx[0], transport._rx[1]
    for ready, wire, key in tx_jobs:
        sim.schedule_at(ready, transport.send, Message(
            MsgKind.PUSH, key, wire - OVERHEAD, 0, 0, 1, Role.SERVER))
    for i, (when, payload) in enumerate(noise):
        sim.schedule_at(when, channels["rx"].enqueue, Message(
            MsgKind.NOISE, -1 - i, payload, 0, 1, 1, Role.WORKER))
    for when, side, new, delay in scheduled:
        sim.schedule_at(when, apply, channels[side], new, delay)
    sim.run()

    assert [key for key, _ in got] == [key for key, _, _ in want]
    assert [t for _, t in got] == pytest.approx(
        [done for _, _, done in want], rel=1e-12, abs=0.0)
    rx = channels["rx"]
    assert rx.messages_transferred == len(rx_jobs)
    assert rx.bytes_transferred == sum(wire for _, wire, _ in rx_jobs)
    assert channels["tx"].messages_transferred == len(tx_jobs)
    assert rx.busy_time == pytest.approx(
        sum(done - start for _, start, done in want), rel=1e-9)
    assert not rx.busy and sim.pending == 0
    sim.check_invariants()
