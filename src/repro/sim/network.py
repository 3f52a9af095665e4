"""Network substrate: messages, transmit queues, NIC channels, transport.

The model follows the paper's deployment: every machine has one
full-duplex NIC.  Each direction (TX / RX) is a rate-limited serializer
("channel") that transmits one message at a time; the queue discipline of
the channel is pluggable — FIFO for the MXNet baseline, a priority queue
for P3 (the paper's producer/consumer thread pulling the highest-priority
slice, Section 4.2).

A remote transfer therefore experiences: sender TX serialization, link
latency, then receiver RX serialization.  Because P3 slices are small
(~200 KB) this store-and-forward model closely approximates a pipelined
link, while still capturing the head-of-line blocking that whole-layer
messages cause for the baseline — the effect P3 exists to remove.

Per-message fixed costs (an envelope of ``overhead_bytes`` plus
``per_message_cpu_s`` of serialization work at each endpoint) make very
small slices expensive, which is what produces the interior optimum of
the paper's Figure 12 slice-size sweep.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from typing import Callable, Deque, List, Optional, Tuple

from .engine import EventHandle, SimulationError, Simulator


class MsgKind(Enum):
    """Protocol message types of the parameter-server protocol."""

    PUSH = "push"          # worker -> server: gradient slice
    PARAM = "param"        # server -> worker: updated parameters
    NOTIFY = "notify"      # server -> worker: "key updated" (baseline KVStore)
    PULL_REQ = "pull_req"  # worker -> server: request parameters
    ACK = "ack"            # server -> worker: push received (credit flow control)
    NOISE = "noise"        # background tenant traffic (shared clusters)


class Role(Enum):
    WORKER = "worker"
    SERVER = "server"
    AGGREGATOR = "aggregator"  # intra-group combiner (two-tier topology)


@dataclass(slots=True)
class Message:
    """One transfer unit on the simulated network.

    ``priority`` follows the paper's convention: the forward-pass index of
    the owning layer, so *lower is more urgent* (layer 0 is consumed first
    in the next iteration).

    Slotted because sweeps create hundreds of thousands of these per
    simulated run; the per-instance ``__dict__`` was measurable in both
    time and memory.
    """

    kind: MsgKind
    key: int
    payload_bytes: int
    priority: int
    src: int                 # machine id
    dst: int                 # machine id
    dst_role: Role
    sender_worker: int = -1  # worker id for PUSH / PULL_REQ bookkeeping
    enqueue_time: float = field(default=-1.0)
    deliver_time: float = field(default=-1.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.kind.value}, key={self.key}, prio={self.priority}, "
            f"{self.src}->{self.dst}/{self.dst_role.value}, {self.payload_bytes}B)"
        )


# ----------------------------------------------------------------------
# Queue disciplines
# ----------------------------------------------------------------------
class TxQueue:
    """Interface for a channel's pending-message queue.

    Implementations may expose a ``backing`` attribute referencing their
    underlying container (deque / heap list); :class:`Channel` uses it
    for C-level emptiness checks instead of calling ``__len__`` through
    a Python frame on every message.  It is optional — channels fall
    back to ``len(queue)`` when absent.
    """

    __slots__ = ()

    def push(self, msg: Message) -> None:
        raise NotImplementedError

    def pop(self) -> Message:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class FifoQueue(TxQueue):
    """First-come-first-served: the baseline's send order.

    ``push``/``pop`` are rebound per instance to the underlying deque's
    C methods, removing a Python frame from every channel operation.
    """

    __slots__ = ("_q", "push", "pop", "backing")

    def __init__(self) -> None:
        self._q: Deque[Message] = deque()
        self.push = self._q.append
        self.pop = self._q.popleft
        self.backing = self._q

    def __len__(self) -> int:
        return len(self._q)


class PriorityQueue(TxQueue):
    """Priority order (lower value first); FIFO among equal priorities.

    This is the P3Worker/P3Server producer-consumer queue of Section 4.2.
    The heap holds one entry per *run*: consecutive pushes of one
    priority, such as a layer's slices or a shard's reply to every
    worker.  An entry is a ``[priority, seq, item]`` list; ``item`` is
    the run's one message, or a deque of them once a second joins, and
    ``None`` once the entry has left the heap.  A push joins the most
    recently pushed entry when that entry has the same priority and
    still holds messages; otherwise it opens a new entry with the next
    sequence number.  Every other entry was opened before the one
    joined, so none sorts between a run's messages, and the pop order is
    that of a heap of per-message ``(priority, seq)`` pairs.  The unique
    sequence number also keeps the heap from ever comparing two items:
    ordering stays in C-level int comparisons.
    """

    __slots__ = ("_heap", "_seq", "push", "pop", "backing")

    def __init__(self) -> None:
        heap: List[list] = []
        self._heap = heap
        self._seq = itertools.count()
        # The queue is empty exactly when the heap is: an entry leaves
        # it with its last message.
        self.backing = heap
        nxt = self._seq.__next__
        last = [None, -1, None]  # the most recently pushed entry

        def push(msg: Message, _push=heappush, _heap=heap, _next=nxt,
                 _deque=deque) -> None:
            nonlocal last
            priority = msg.priority
            item = last[2]
            if item is not None and last[0] == priority:
                if item.__class__ is _deque:
                    item.append(msg)
                else:
                    last[2] = _deque((item, msg))
                return
            last = [priority, _next(), msg]
            _push(_heap, last)

        def pop(_pop=heappop, _heap=heap, _deque=deque) -> Message:
            entry = _heap[0]
            item = entry[2]
            if item.__class__ is _deque:
                msg = item.popleft()
                if item:
                    return msg
            else:
                msg = item
            _pop(_heap)
            entry[2] = None
            return msg

        self.push = push
        self.pop = pop

    def __len__(self) -> int:
        return sum(len(item) if item.__class__ is deque else 1
                   for _, _, item in self._heap)


def make_queue(discipline: str) -> TxQueue:
    """Factory for queue disciplines: ``"fifo"`` or ``"priority"``."""
    if discipline == "fifo":
        return FifoQueue()
    if discipline == "priority":
        return PriorityQueue()
    raise ValueError(f"unknown queue discipline: {discipline!r}")


# ----------------------------------------------------------------------
# NIC channel
# ----------------------------------------------------------------------
TraceCallback = Callable[[int, str, float, float, int], None]
"""(machine, direction, start, end, wire_bytes) -> None"""

_INF = float("inf")


class ChannelObserver:
    """Observation-only hooks of the one channel an observer is given to.

    Implementations (see :mod:`repro.obs` wiring in
    :class:`~repro.sim.cluster.ClusterSim`) must not schedule events,
    mutate messages, or consume randomness: attaching an observer must
    leave the simulated timeline bit-identical.  Every hook is O(1) in
    the queue length; the channel never shows its queue.
    """

    def on_enqueue(self, msg: Message) -> None:
        """``msg`` is about to join the queue (it may be popped at once)."""

    def on_pop(self, msg: Message) -> None:
        """``msg`` was popped for transmission."""

    def on_sent(self, msg: Message, start: float, end: float) -> None:
        """``msg`` finished transmitting."""


class Channel:
    """A rate-limited serializer for one NIC direction of one machine.

    Transmits one message at a time; occupancy per message is

        (payload + overhead_bytes) * 8 / rate + per_message_cpu_s

    Messages that arrive while the channel is busy wait in the queue; the
    in-flight message is never preempted (P3's consumer thread uses
    blocking sends — preemption happens between slices, not within one).

    There is one implementation for every configuration.  The
    per-message path is a chain of closures over the channel's state,
    the rate included (:meth:`_bind_path`); a receive channel also
    commits arrivals ahead of time (:meth:`fuse_hop`).  A rate change
    (:meth:`set_rate` — link faults, tenancy re-sharing) is the rare
    path and re-times what is in flight, so a message that started on a
    healthy link finishes late on a degraded one and stalls outright
    while the rate is zero.

    ``cancellable`` is accepted and ignored: it used to choose between
    two implementations and ``bench/probes.py::network_msgs_per_s``
    still passes it.  Remove it together with that probe.
    """

    def __init__(
        self,
        sim: Simulator,
        machine: int,
        direction: str,
        rate_bytes_per_s: Optional[float],
        queue: TxQueue,
        on_complete: Callable[[Message], None],
        overhead_bytes: int = 64,
        per_message_cpu_s: float = 0.0,
        trace: Optional[TraceCallback] = None,
        cancellable: bool = True,
        observer: Optional[ChannelObserver] = None,
    ) -> None:
        if rate_bytes_per_s is not None and rate_bytes_per_s <= 0:
            raise ValueError("rate_bytes_per_s must be positive (or None for infinite)")
        self.sim = sim
        self.machine = machine
        self.direction = direction
        self.rate = rate_bytes_per_s
        self.nominal_rate = rate_bytes_per_s
        self.queue = queue
        self.on_complete = on_complete
        self.overhead_bytes = overhead_bytes
        self.per_message_cpu_s = per_message_cpu_s
        self.trace = trace
        # Optional repro.obs hook, fixed for the channel's lifetime so
        # the transmit closures below can capture it.
        self.observer = observer
        self.busy = False
        self.bytes_transferred = 0
        self.messages_transferred = 0
        self.busy_time = 0.0
        # Rare-path state, never cleared per message.  ``_stalled``: the
        # completion args of an in-flight message with no completion in
        # the heap (the link is down).  ``_debt``: what the last re-timed
        # message still owed — (its completion args, when reckoned, CPU
        # seconds left, wire bytes left) — so a second rate change
        # during the same message continues from the first.
        self._stalled: Optional[tuple] = None
        self._debt: tuple = (None, 0.0, 0.0, 0.0)
        self._bind_path()
        if observer is not None:
            # The enqueue hook exists only on an observed channel: an
            # unobserved one pays nothing for it.
            on_enqueue = observer.on_enqueue
            inner = self.enqueue

            def enqueue(msg: Message) -> None:
                on_enqueue(msg)
                inner(msg)

            self.enqueue = enqueue  # type: ignore[method-assign]

    def occupancy(self, msg: Message) -> float:
        """Seconds this channel is occupied transmitting ``msg`` at the
        current rate (ignoring future rate changes)."""
        wire_bytes = msg.payload_bytes + self.overhead_bytes
        if self.rate is None:
            return self.per_message_cpu_s
        if self.rate <= 0:
            return _INF
        return wire_bytes / self.rate + self.per_message_cpu_s

    def enqueue(self, msg: Message) -> None:
        """Queue ``msg``; an idle channel starts it at once."""
        # Each instance installs a closure (see _bind_path); this one
        # answers only once :meth:`release` has dropped it.
        raise SimulationError(
            f"channel {self.machine}/{self.direction} was released")

    def release(self) -> None:
        """Drop the transmit closures and the completion callback.

        The closures capture the channel and themselves (``finish`` and
        ``deliver`` reschedule themselves), and ``on_complete`` leads to
        the machine's endpoints, so a finished run's channels sit in
        reference cycles that only the cyclic collector would free.
        Called once no event of the run can fire
        (:meth:`ClusterSim.release`), once; counters, ``busy``,
        ``rate`` and the queue stay readable, and enqueueing raises.
        """
        self._cut()
        del self.enqueue, self._set_rate, self._cut
        self.on_complete = None

    def set_rate(self, rate_bytes_per_s: Optional[float]) -> None:
        """Change the link rate, re-timing whatever is in flight.

        ``0.0`` is a link that is down: the in-flight message keeps its
        remaining bytes and resumes when the rate recovers.
        """
        if rate_bytes_per_s is not None and rate_bytes_per_s < 0:
            raise ValueError("rate_bytes_per_s must be >= 0 (or None for infinite)")
        self._set_rate(rate_bytes_per_s)

    def _retime(self, finish: Callable[..., None],
                new_rate: Optional[float]) -> float:
        """Move the in-flight message's completion to where ``new_rate``
        puts it; returns the new completion time (``inf`` while the
        link is down).  ``self.rate`` is still the old rate.

        A busy channel has at most one completion in the engine heap and
        its callback is the channel's own ``finish`` closure, so a scan
        finds it — O(heap), once per rate change, never per message.
        It is retired in place (same ``(time, seq)``, a cancelled
        :class:`EventHandle`), which is what ``Simulator.schedule`` +
        ``cancel`` would have left, so ``pending`` and
        ``check_invariants`` stay exact.  The debt is reckoned CPU
        first, then bytes at the old rate; the new completion goes at
        ``now + remaining`` with the next sequence number.  No
        completion and nothing stalled means the channel is between
        messages (``set_rate`` called from its own ``on_complete``):
        the successor starts now.
        """
        sim = self.sim
        heap = sim._heap
        now = sim.now
        args = self._stalled
        if args is None:
            for i, entry in enumerate(heap):
                if entry[2] is finish and entry[4] is None:
                    break
            else:
                return now
            time, seq, _, args, _ = entry
            handle = EventHandle(time, seq, finish, args, sim)
            handle.cancel()
            heap[i] = (time, seq, finish, args, handle)
        old_rate = self.rate
        owed_by, last, cpu_left, bytes_left = self._debt
        if owed_by is not args:
            # First change during this message: it has run at
            # ``old_rate`` since its start (an infinite link owes no bytes).
            last, cpu_left = args[1], self.per_message_cpu_s
            bytes_left = 0.0 if old_rate is None else float(args[2])
        elapsed = now - last
        cpu_done = min(elapsed, cpu_left)
        cpu_left -= cpu_done
        elapsed -= cpu_done
        if elapsed > 0 and old_rate is not None and old_rate > 0:
            bytes_left = max(0.0, bytes_left - elapsed * old_rate)
        self._debt = (args, now, cpu_left, bytes_left)
        remaining = cpu_left
        if bytes_left > 0 and new_rate is not None:
            if new_rate <= 0:
                self._stalled = args
                return _INF
            remaining += bytes_left / new_rate
        self._stalled = None
        heappush(heap, (now + remaining, next(sim._seq), finish, args, None))
        return now + remaining

    def _bind_path(self) -> None:
        """Close the transmit loop over this channel's state.

        Overhead, CPU cost, queue, trace sink and observer are fixed for
        the channel's lifetime and the rate is a closure cell that only
        ``set_rate`` rebinds, so the per-message path has no ``self.``
        lookup for any of them and pays nothing for being retunable.
        Completion events carry ``(msg, start, wire_bytes)`` and are
        pushed straight onto the engine heap with the arithmetic of
        :meth:`Simulator.after` (``now + delay``, same sequence counter)
        — no Python frame, no EventHandle.  A start at rate zero is the
        ``ZeroDivisionError`` branch of that arithmetic (free when it
        does not raise): in flight, no completion until the rate
        recovers.  Mutable state (``busy``, transfer counters,
        ``on_complete``) stays on ``self`` because faults and the
        invariant harness rebind or read it dynamically.

        ``finish`` is the one place a message starts: the completion
        event starts the successor in the same frame, and an enqueue on
        an idle channel calls it with nothing to complete.  It reaches
        itself through its closure cell, which ``cut`` empties
        (:meth:`release`); the cell costs nothing per message.
        """
        sim = self.sim
        heap = sim._heap
        seq_next = sim._seq.__next__
        push = heappush
        queue = self.queue
        q_push = queue.push
        q_pop = queue.pop
        # The queue's container, for emptiness checks without a
        # ``__len__`` frame; a queue without one is asked itself.
        backing = getattr(queue, "backing", queue)
        overhead = self.overhead_bytes
        cpu = self.per_message_cpu_s
        rate = self.rate
        trace = self.trace
        obs = self.observer
        machine = self.machine
        direction = self.direction

        def finish(msg: Optional[Message], start: float,
                   wire_bytes: int) -> None:
            now = sim.now
            if msg is not None:
                self.busy_time += now - start
                if trace is not None:
                    trace(machine, direction, start, now, wire_bytes)
                if obs is not None:
                    obs.on_sent(msg, start, now)
                self.busy = False
                self.on_complete(msg)
                # ``on_complete`` may have enqueued here, and then it
                # started the successor itself.
                if self.busy or not backing:
                    return
            msg = q_pop()
            if obs is not None:
                obs.on_pop(msg)
            self.busy = True
            wire_bytes = msg.payload_bytes + overhead
            self.bytes_transferred += wire_bytes
            self.messages_transferred += 1
            try:
                push(heap, (now + (cpu if rate is None
                                   else cpu + wire_bytes / rate),
                            seq_next(), finish, (msg, now, wire_bytes), None))
            except ZeroDivisionError:
                self._stalled = (msg, now, wire_bytes)

        def enqueue(msg: Message) -> None:
            q_push(msg)
            if not self.busy:
                finish(None, 0.0, 0)

        def set_rate(new_rate: Optional[float]) -> None:
            nonlocal rate
            if self.busy:
                self._retime(finish, new_rate)
            self.rate = rate = new_rate

        def cut() -> None:
            nonlocal finish
            finish = None

        self.enqueue = enqueue  # type: ignore[method-assign]
        self._set_rate = set_rate  # type: ignore[method-assign]
        self._cut = cut  # type: ignore[method-assign]

    def fuse_hop(self, latency_s: float) -> Callable[[Message], None]:
        """Make this the receive side of a link and skip the link-latency
        events in front of it that decide nothing.  Returns
        ``arrive(msg)``, which the transport calls the moment ``msg``
        leaves the sender's TX (or the shared fabric).

        A FIFO RX is a pure function of arrival order, and with a
        constant latency arrival order is the order of ``arrive`` calls.
        So when ``arrive`` sees that the channel's committed work ends
        after ``now + latency``, the hop event would only append ``msg``
        to a busy channel's queue: it is elided (and credited to
        ``events_processed``, which counts protocol events), and ``msg``
        is committed on the spot — service starts when its predecessor
        completes and ends ``cpu + wire/rate`` later, term for term what
        a plain channel's ``finish`` computes.  Otherwise the channel
        may be idle when ``msg`` lands, the hop is the event that starts
        it, and it is scheduled as usual.  Either way every completion
        is pushed where an event-per-hop channel pushes it (from the hop
        on an idle channel, else after the predecessor's ``on_complete``
        returns), so simultaneous events keep their order and the run is
        the event-per-hop run, event for event.

        An elided hop still draws the sequence number its event would
        have carried and the committed entry keeps it, with the arrival
        time: the sequence stream stays the event-per-hop run's, which
        lets a commitment be taken back.  When the rate changes or
        another producer enqueues directly (background NOISE), every
        committed entry that has not landed (``arrival > now``) is
        *un-elided*: popped off the tail, its credit returned, its hop
        pushed at the reserved ``(arrival, seq)``, where it sorts as if
        scheduled all along.  The channel is then the event-per-hop
        channel — a queue of what has landed, and hops on the link.  A
        rate change re-times the head (:meth:`_retime`) and re-cuts the
        landed tail behind it; a direct enqueue joins behind the landed
        tail, ahead of what is still on the link.  While hops are in
        flight later arrivals schedule real hops; fusion resumes by
        itself.  ``arrival == now`` counts as landed: only the current
        event's sequence number, which the engine does not expose, could
        order the two, and the golden signatures in ``tests/sim`` hold
        with this choice.

        At most one completion per channel sits in the engine heap, the
        head of line; a wide incast backs up in this deque, not in the
        global heap.  A completion stamps ``msg.deliver_time`` and hands
        ``msg`` to ``on_complete``, which the transport sets to the
        machine's endpoint.  Requires an unobserved FIFO channel (a
        committed message is never pushed on or popped off the queue, so
        those hooks could not fire); the transport fuses every RX it
        registers.  Like ``finish``, ``deliver`` reaches itself through
        its closure cell, which ``cut`` empties.
        """
        if self.observer is not None or not isinstance(self.queue, FifoQueue):
            raise SimulationError(
                "only an unobserved FIFO channel can be fused")
        self._cut()  # retire the plain path this one replaces
        sim = self.sim
        heap = sim._heap
        seq_next = sim._seq.__next__
        push = heappush
        overhead = self.overhead_bytes
        cpu = self.per_message_cpu_s
        rate = self.rate
        trace = self.trace
        machine = self.machine
        direction = self.direction
        inf = _INF
        # Committed messages behind the head of line, in arrival order,
        # one flat tuple each: (completion time, message, service start,
        # arrival time, hop sequence number), the last two zero where
        # the hop was a real event.  The completion args ``(msg, start,
        # wire_bytes)`` are built when an entry reaches the head of line.
        # ``free_at``: when the last of them completes; ``head_done``:
        # when the head of line does (what ``free_at`` falls back to when
        # the tail is taken back); ``hops``: hop events in flight (a later
        # message must not be committed ahead of one yet to land).
        waiting: Deque[Tuple[float, Message, float, float, int]] = deque()
        wait = waiting.append
        next_waiting = waiting.popleft
        free_at = 0.0
        head_done = 0.0
        hops = 0

        def deliver(msg: Message, start: float, wire_bytes: int) -> None:
            nonlocal head_done
            msg.deliver_time = now = sim.now
            self.busy_time += now - start
            self.bytes_transferred += wire_bytes
            self.messages_transferred += 1
            if trace is not None:
                trace(machine, direction, start, now, wire_bytes)
            self.on_complete(msg)
            if waiting:
                head_done, msg, start, _, _ = next_waiting()
                args = (msg, start, msg.payload_bytes + overhead)
                if head_done < inf:
                    push(heap, (head_done, seq_next(), deliver, args, None))
                else:
                    self._stalled = args
            else:
                self.busy = False

        def land(msg: Message) -> None:
            nonlocal free_at, head_done, hops
            hops -= 1
            busy = self.busy
            wire_bytes = msg.payload_bytes + overhead
            start = free_at if busy else sim.now
            try:
                free_at = done = start + (cpu if rate is None
                                          else cpu + wire_bytes / rate)
            except ZeroDivisionError:
                free_at = done = inf
            if busy:
                wait((done, msg, start, 0.0, 0))
                return
            self.busy = True
            head_done = done
            args = (msg, start, wire_bytes)
            if done < inf:
                push(heap, (done, seq_next(), deliver, args, None))
            else:
                self._stalled = args  # the link is down

        def arrive(msg: Message) -> None:
            nonlocal free_at, hops
            arrival = sim.now + latency_s
            if free_at > arrival and not hops:
                sim._events_processed += 1  # the elided link-latency hop
                wire_bytes = msg.payload_bytes + overhead
                start = free_at
                try:
                    free_at = done = start + (cpu if rate is None
                                              else cpu + wire_bytes / rate)
                except ZeroDivisionError:
                    free_at = done = inf
                wait((done, msg, start, arrival, seq_next()))
            else:
                hops += 1
                push(heap, (arrival, seq_next(), land, (msg,), None))

        def unelide() -> None:
            """Put every committed hop that has not landed back on the link."""
            nonlocal free_at, hops
            now = sim.now
            while waiting and waiting[-1][3] > now:
                _, msg, _, arrival, hop_seq = waiting.pop()
                sim._events_processed -= 1
                hops += 1
                push(heap, (arrival, hop_seq, land, (msg,), None))
            free_at = waiting[-1][0] if waiting else head_done

        def enqueue(msg: Message) -> None:
            nonlocal hops
            if self.busy:
                unelide()
            hops += 1  # a hop of no length: ``msg`` lands now
            land(msg)

        def set_rate(new_rate: Optional[float]) -> None:
            nonlocal rate, free_at, head_done
            if self.busy:
                unelide()
                free_at = head_done = self._retime(deliver, new_rate)
            self.rate = rate = new_rate
            landed = list(waiting)  # empty on an idle channel
            waiting.clear()
            for _, msg, _, arrival, hop_seq in landed:
                start = free_at
                free_at = inf if rate == 0 else start + (
                    cpu if rate is None
                    else cpu + (msg.payload_bytes + overhead) / rate)
                wait((free_at, msg, start, arrival, hop_seq))

        def cut() -> None:
            nonlocal deliver
            deliver = None

        self.enqueue = enqueue  # type: ignore[method-assign]
        self._set_rate = set_rate  # type: ignore[method-assign]
        self._cut = cut  # type: ignore[method-assign]
        return arrive


# ----------------------------------------------------------------------
# Transport: wires machine channels together
# ----------------------------------------------------------------------
class Transport:
    """Moves messages between machines via their TX/RX channels.

    Local traffic (worker and its colocated PS shard on the same machine)
    bypasses the NIC — ps-lite sends to self over loopback, which is not
    bandwidth-constrained — and is delivered after ``loopback_latency_s``.

    A remote message goes TX -> (fabric ->) link latency -> RX, and each
    hand-off is one call.  A TX (or fabric) completion calls the
    destination RX's ``arrive``, which schedules a latency event only
    for a message that may find the RX idle (:meth:`Channel.fuse_hop`);
    an RX completion is the machine's endpoint itself; a loopback event
    calls the endpoint directly.  ``deliver_time`` is stamped where the
    delivery time is known: by the RX completion, or at send for a
    loopback message.
    """

    def __init__(
        self,
        sim: Simulator,
        latency_s: float = 50e-6,
        loopback_latency_s: float = 5e-6,
        fabric: Optional[Channel] = None,
    ) -> None:
        self.sim = sim
        self.latency_s = latency_s
        self.loopback_latency_s = loopback_latency_s
        self._tx: dict = {}
        self._rx: dict = {}
        self._deliver: dict = {}
        # machine -> ``arrive`` of that machine's RX.
        self._arrive: dict = {}
        # The raw heap/sequence pair for the loopback push in ``send``
        # (``Simulator.after``'s exact arithmetic, without its frame).
        self._heap = sim._heap
        self._seq_next = sim._seq.__next__
        # Optional shared core fabric: when set, all inter-machine
        # traffic serializes through it (oversubscribed switch model).
        self.fabric = fabric
        arrive = self._arrive
        noise = MsgKind.NOISE
        if fabric is None:
            def tx_done(msg: Message) -> None:
                if msg.kind is not noise:  # background traffic ends here
                    arrive[msg.dst](msg)
        else:
            into_fabric = fabric.enqueue

            def tx_done(msg: Message) -> None:
                if msg.kind is not noise:
                    into_fabric(msg)

            def fabric_done(msg: Message) -> None:
                arrive[msg.dst](msg)

            fabric.on_complete = fabric_done
        self._tx_done = tx_done

    def release(self) -> None:
        """Drop the routing tables and ``tx_done`` (and release the
        fabric, whose completion the transport owns): they lead from
        every channel to every other and to the machines' endpoints.
        Sending after this raises."""
        for table in (self._tx, self._rx, self._deliver, self._arrive):
            table.clear()
        self._tx_done = None
        if self.fabric is not None:
            self.fabric.release()

    def register(
        self,
        machine: int,
        tx: Channel,
        rx: Channel,
        deliver: Callable[[Message], None],
    ) -> None:
        self._tx[machine] = tx
        self._rx[machine] = rx
        self._deliver[machine] = deliver
        self._arrive[machine] = rx.fuse_hop(self.latency_s)
        tx.on_complete = self._tx_done
        rx.on_complete = deliver

    def send(self, msg: Message) -> None:
        msg.enqueue_time = now = self.sim.now
        dst = msg.dst
        if msg.src != dst:
            self._tx[msg.src].enqueue(msg)
        else:
            msg.deliver_time = at = now + self.loopback_latency_s
            heappush(self._heap, (at, self._seq_next(), self._deliver[dst],
                                  (msg,), None))


def gbps_to_bytes_per_s(gbps: float) -> float:
    """Convert link rate in Gbit/s to bytes/s."""
    return gbps * 1e9 / 8.0
