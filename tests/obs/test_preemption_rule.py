"""The ``slice_preempted`` rule, checked against an O(n) reference scan.

The TX-channel observer decides in O(1) whether a pop overtook an older
waiting slice: it keeps the waiting slices in enqueue order and looks at
the head.  This test drives random enqueue/pop interleavings through a
real :class:`Channel` — both queue disciplines, control traffic mixed
in, many messages sharing one ``enqueue_time`` — and holds the observer to the scan it replaced (kept here only):

* a preemption is reported exactly when some waiting slice is strictly
  older than the popped one;
* the victim has the minimum ``enqueue_time`` among the waiting slices;
* among equally old ones it is the first enqueued;
* a FIFO channel never reports one.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import sim_session
from repro.sim.cluster import _ChannelObsAdapter
from repro.sim.engine import Simulator
from repro.sim.network import (
    Channel,
    ChannelObserver,
    Message,
    MsgKind,
    Role,
    make_queue,
)

SLICE_KINDS = (MsgKind.PUSH, MsgKind.PARAM)
KINDS = (MsgKind.PUSH, MsgKind.PARAM, MsgKind.PUSH, MsgKind.PARAM,
         MsgKind.ACK, MsgKind.NOTIFY, MsgKind.PULL_REQ)


class ReferenceScan(ChannelObserver):
    """Wraps the real observer; re-derives each verdict the O(n) way."""

    def __init__(self, inner: _ChannelObsAdapter, session) -> None:
        self.inner = inner
        self.recorder = session.recorder
        self.waiting: List[Message] = []  # slices, in enqueue order
        self.pops = 0
        self.preemptions = 0

    def on_enqueue(self, msg: Message) -> None:
        if msg.kind in SLICE_KINDS:
            self.waiting.append(msg)
        self.inner.on_enqueue(msg)

    def on_pop(self, msg: Message) -> None:
        before = len(self.recorder)
        self.inner.on_pop(msg)
        reported = self.recorder.to_dicts()[before:]
        self.pops += 1
        if msg.kind not in SLICE_KINDS:
            assert not reported, "control traffic is never a preemptor"
            return
        self.waiting = [m for m in self.waiting if m is not msg]
        older = [m for m in self.waiting
                 if m.enqueue_time < msg.enqueue_time]
        assert bool(reported) == bool(older)
        if not older:
            return
        self.preemptions += 1
        (event,) = reported
        oldest = min(m.enqueue_time for m in self.waiting)
        first_oldest = next(m for m in self.waiting
                            if m.enqueue_time == oldest)
        assert event["kind"] == "slice_preempted"
        assert event["key"] == first_oldest.key  # keys are unique here
        assert event["priority"] == first_oldest.priority
        assert event["nbytes"] == first_oldest.payload_bytes
        assert event["detail"] == f"overtaken_by_key={msg.key}"

    def on_sent(self, msg: Message, start: float, end: float) -> None:
        self.inner.on_sent(msg, start, end)


def _drive(discipline: str, arrivals) -> ReferenceScan:
    sim = Simulator()
    session = sim_session()
    cluster = SimpleNamespace(
        sim=sim, key_layer={}, n_workers=1,
        config=SimpleNamespace(colocate_servers=True))
    check = ReferenceScan(_ChannelObsAdapter(cluster, session, 0), session)
    channel = Channel(sim, 0, "tx", 1e6, make_queue(discipline),
                      on_complete=lambda _m: None, overhead_bytes=0,
                      observer=check)

    def send(msg: Message) -> None:  # what Transport.send does
        msg.enqueue_time = sim.now
        channel.enqueue(msg)

    at = 0.0
    for key, (gap, kind, priority, payload) in enumerate(arrivals):
        at += gap
        sim.schedule_at(at, send, Message(
            kind=kind, key=key, payload_bytes=payload, priority=priority,
            src=0, dst=1, dst_role=Role.SERVER, sender_worker=0))
    sim.run()
    assert check.pops == len(arrivals) and not check.waiting
    return check


# Gaps are mostly zero (bursts sharing one enqueue_time, as a layer's
# slices do) and otherwise comparable to a transmit time (100-2000 us at
# 1 MB/s), so the queue both builds and drains.
ARRIVALS = st.lists(
    st.tuples(st.sampled_from((0.0, 0.0, 0.0, 2e-4, 3e-3)),
              st.sampled_from(KINDS),
              st.integers(0, 4),
              st.integers(100, 2000)),
    min_size=1, max_size=60)


@settings(max_examples=150, deadline=None)
@given(arrivals=ARRIVALS)
def test_priority_channel_matches_reference_scan(arrivals):
    _drive("priority", arrivals)


@settings(max_examples=50, deadline=None)
@given(arrivals=ARRIVALS)
def test_fifo_channel_never_preempts(arrivals):
    assert _drive("fifo", arrivals).preemptions == 0


def test_ties_name_the_first_enqueued_sibling():
    """Three same-instant low-priority slices wait behind a transmission;
    an urgent one arrives later and overtakes them.  The victim is the
    first of the three, whatever order the heap happens to hold them in."""
    burst = [(0.0, MsgKind.PUSH, 0, 2000)]          # occupies the channel
    burst += [(0.0, MsgKind.PUSH, 4, 500)] * 3      # keys 1, 2, 3 wait
    burst += [(1e-3, MsgKind.PUSH, 1, 500)]         # key 4 overtakes
    check = _drive("priority", burst)
    victims = [e["key"] for e in check.recorder.to_dicts()
               if e["kind"] == "slice_preempted"]
    assert victims == [1]
