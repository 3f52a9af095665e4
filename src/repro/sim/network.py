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
    Entries are ``(priority, seq, msg)`` tuples: the unique sequence
    number both breaks ties FIFO and guarantees the heap never has to
    compare two :class:`Message` objects — ordering stays entirely in
    C-level int comparisons.
    """

    __slots__ = ("_heap", "_seq", "push", "pop", "backing")

    def __init__(self) -> None:
        heap: List[Tuple[int, int, Message]] = []
        self._heap = heap
        self._seq = itertools.count()
        self.backing = heap
        nxt = self._seq.__next__

        def push(msg: Message, _push=heappush, _heap=heap, _next=nxt) -> None:
            _push(_heap, (msg.priority, _next(), msg))

        def pop(_pop=heappop, _heap=heap) -> Message:
            return _pop(_heap)[2]

        self.push = push
        self.pop = pop

    def __len__(self) -> int:
        return len(self._heap)


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

    The rate may change mid-transmission (:meth:`set_rate` — link
    degradation faults, :mod:`repro.sim.faults`): the in-flight
    message's completion is recomputed from the bytes still on the wire,
    so a message that started on a healthy link finishes late on a
    degraded one, and stalls outright while the rate is zero.
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
        # In-flight transmission state (valid while busy): the message,
        # its wire size, segment start, last progress sync, and what is
        # still owed — CPU first, then wire bytes at the current rate.
        self._seg_msg: Optional[Message] = None
        self._seg_wire_bytes = 0
        self._seg_start = 0.0
        self._seg_last = 0.0
        self._seg_cpu_left = 0.0
        self._seg_bytes_left = 0.0
        self._finish_handle: Optional[EventHandle] = None
        # Hot-path bindings: the engine methods, the queue's C-level
        # push/pop, and the queue's backing container (emptiness checks
        # without a __len__ frame; None falls back to len(queue)).
        self._sched = sim.schedule
        self._finish_cb = self._finish
        self._q_push = queue.push
        self._q_pop = queue.pop
        self._backing = getattr(queue, "backing", None)
        # ``cancellable=False`` declares that ``set_rate`` will never be
        # called mid-transmission (no link faults target this channel),
        # which unlocks the handle-free fast path: completions are
        # fire-and-forget ``after`` events carrying their own state, and
        # no per-segment debt bookkeeping is maintained.  Timestamps are
        # identical either way — only allocations differ.
        self.cancellable = cancellable
        if not cancellable and self._backing is not None:
            self._bind_static_path()
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
            return float("inf")
        return wire_bytes / self.rate + self.per_message_cpu_s

    def enqueue(self, msg: Message) -> None:
        self._q_push(msg)
        if not self.busy:
            self._start_next()

    def set_rate(self, rate_bytes_per_s: Optional[float]) -> None:
        """Change the link rate, rescheduling any in-flight completion.

        ``0.0`` models a fully-down link: the in-flight message keeps
        its remaining bytes and resumes when the rate recovers.
        Requires a ``cancellable`` channel — static channels have no
        completion handle to reschedule.
        """
        if rate_bytes_per_s is not None and rate_bytes_per_s < 0:
            raise ValueError("rate_bytes_per_s must be >= 0 (or None for infinite)")
        if not self.cancellable:
            raise SimulationError(
                "set_rate on a static channel; construct with "
                "cancellable=True for fault-injectable links")
        if self.busy:
            self._sync_progress()
            self.rate = rate_bytes_per_s
            if self._finish_handle is not None:
                self._finish_handle.cancel()
            self._schedule_finish()
        else:
            self.rate = rate_bytes_per_s

    def _remaining(self) -> float:
        """Seconds until the in-flight message completes at current rate."""
        rem = self._seg_cpu_left
        if self._seg_bytes_left > 0:
            if self.rate is None:
                pass  # infinite rate: bytes are free
            elif self.rate <= 0:
                return float("inf")
            else:
                rem += self._seg_bytes_left / self.rate
        return rem

    def _sync_progress(self) -> None:
        """Account elapsed time against the in-flight message's debt."""
        elapsed = self.sim.now - self._seg_last
        self._seg_last = self.sim.now
        cpu = min(elapsed, self._seg_cpu_left)
        self._seg_cpu_left -= cpu
        elapsed -= cpu
        if elapsed > 0 and self.rate is not None and self.rate > 0:
            self._seg_bytes_left = max(0.0, self._seg_bytes_left - elapsed * self.rate)

    def _schedule_finish(self) -> None:
        rem = self._remaining()
        if rem == float("inf"):
            self._finish_handle = None  # stalled until the rate recovers
        else:
            self._finish_handle = self.sim.schedule(rem, self._finish)

    def _start_next(self) -> None:
        if self.busy:
            raise SimulationError("channel started while busy")
        backing = self._backing
        if backing is not None:
            if not backing:
                return
        elif len(self.queue) == 0:
            return
        msg = self._q_pop()
        if self.observer is not None:
            self.observer.on_pop(msg)
        self.busy = True
        now = self.sim.now
        rate = self.rate
        cpu = self.per_message_cpu_s
        wire_bytes = msg.payload_bytes + self.overhead_bytes
        self._seg_msg = msg
        self._seg_wire_bytes = wire_bytes
        self._seg_start = now
        self._seg_last = now
        self._seg_cpu_left = cpu
        self.bytes_transferred += wire_bytes
        self.messages_transferred += 1
        # Fast path for the overwhelmingly common case of a healthy
        # link: the occupancy is fully determined here, so schedule the
        # completion directly.  The arithmetic matches `_remaining()`
        # term for term (cpu + bytes/rate), keeping timestamps
        # bit-identical; the segment state above stays valid in case a
        # mid-flight `set_rate` needs to resync.
        if rate is None:
            self._seg_bytes_left = 0.0
            self._finish_handle = self._sched(cpu, self._finish_cb)
        elif rate > 0:
            self._seg_bytes_left = float(wire_bytes)
            self._finish_handle = self._sched(
                cpu + wire_bytes / rate, self._finish_cb)
        else:
            self._seg_bytes_left = float(wire_bytes)
            self._schedule_finish()

    def _finish(self) -> None:
        msg = self._seg_msg
        now = self.sim.now
        self.busy_time += now - self._seg_start
        if self.trace is not None:
            self.trace(self.machine, self.direction, self._seg_start,
                       now, self._seg_wire_bytes)
        if self.observer is not None:
            self.observer.on_sent(msg, self._seg_start, now)
        self.busy = False
        self._seg_msg = None
        self._finish_handle = None
        self.on_complete(msg)
        backing = self._backing
        if backing is not None:
            if backing:
                self._start_next()
        elif len(self.queue) > 0:
            self._start_next()

    # ------------------------------------------------------------------
    # Static-channel fast path (cancellable=False): the occupancy is
    # fully determined at start, so the completion is a fire-and-forget
    # event carrying (msg, start, wire_bytes) as arguments — no
    # EventHandle, no per-segment debt attributes.  Scheduling order and
    # timestamps are identical to the generic path.
    # ------------------------------------------------------------------
    def _bind_static_path(self) -> None:
        """Close the transmit loop over this channel's immutable state.

        ``cancellable=False`` guarantees ``set_rate`` never runs, so the
        rate, overhead, CPU cost, queue, trace sink and observer are all
        fixed for the channel's lifetime and can be captured as closure
        cells — no ``self.`` lookups on the per-message path.  Completion
        events push directly onto the engine heap with the exact
        arithmetic of :meth:`Simulator.after` (``now + delay``, same
        sequence counter), so timestamps and tie-breaks are
        bit-identical; only the Python frame and EventHandle disappear.
        Mutable state (``busy``, transfer counters, ``on_complete``)
        stays on ``self`` because faults and the invariant harness
        rebind or read it dynamically.
        """
        sim = self.sim
        heap = sim._heap
        seq_next = sim._seq.__next__
        push = heappush
        q_push = self._q_push
        q_pop = self._q_pop
        backing = self._backing
        overhead = self.overhead_bytes
        cpu = self.per_message_cpu_s
        rate = self.rate
        trace = self.trace
        obs = self.observer
        machine = self.machine
        direction = self.direction

        def finish_fast(msg: Message, start: float, wire_bytes: int) -> None:
            now = sim.now
            self.busy_time += now - start
            if trace is not None:
                trace(machine, direction, start, now, wire_bytes)
            if obs is not None:
                obs.on_sent(msg, start, now)
            self.busy = False
            self.on_complete(msg)
            if backing:
                start_next()

        def start_next() -> None:
            if not backing:
                return
            msg = q_pop()
            if obs is not None:
                obs.on_pop(msg)
            self.busy = True
            wire_bytes = msg.payload_bytes + overhead
            self.bytes_transferred += wire_bytes
            self.messages_transferred += 1
            now = sim.now
            push(heap, (now + (cpu if rate is None
                               else cpu + wire_bytes / rate),
                        seq_next(), finish_fast,
                        (msg, now, wire_bytes), None))

        def enqueue(msg: Message) -> None:
            q_push(msg)
            if not self.busy:
                start_next()

        self._start_next = start_next  # type: ignore[method-assign]
        self.enqueue = enqueue  # type: ignore[method-assign]

    def fuse_hop(self, latency_s: float) -> Callable[[Message], None]:
        """Skip the link-latency events in front of this receive channel
        that decide nothing; returns ``arrive(msg)``, which the transport
        calls the moment ``msg`` leaves the sender's TX (or the shared
        fabric).

        A static FIFO RX is a pure function of arrival order, and with a
        constant latency arrival order is the order of ``arrive`` calls.
        So when ``arrive`` sees that the channel's committed work ends
        after ``now + latency``, the hop event would only append ``msg`` to a
        busy channel's queue: it is elided (and credited to
        ``events_processed``, which counts protocol events), and ``msg``
        is committed on the spot — service starts when its predecessor
        completes and ends ``cpu + wire/rate`` later, term for term what
        ``finish_fast`` -> ``start_next`` computes.  Otherwise the
        channel may be idle when ``msg`` lands, the hop is the event
        that starts it, and it is scheduled as usual.  Either way every
        completion is pushed where the unfused path pushes it (from the
        hop on an idle channel, else after the predecessor's
        ``on_complete`` returns), so simultaneous events keep their
        order and a fused run is the unfused run, event for event.

        At most one completion per channel sits in the engine heap: the
        head of line.  Committed messages wait here, so a wide incast
        backs up in this deque, not in the global heap.

        Requires an unobserved static FIFO channel with no other
        producer: a direct :meth:`enqueue` at ``now`` would be overtaken
        by arrivals already committed, so it raises once the channel is
        fused.
        """
        if (self.cancellable or self.observer is not None
                or not isinstance(self._backing, deque)):
            raise SimulationError(
                "only an unobserved static FIFO channel can be fused")
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
        # (completion time, completion args) of committed messages behind
        # the head of line, the completion time of the last one, and the
        # hop events in flight (a later message must not be committed
        # ahead of one that has yet to land).
        waiting: Deque[Tuple[float, tuple]] = deque()
        wait = waiting.append
        next_waiting = waiting.popleft
        free_at = 0.0
        hops = 0

        def deliver(msg: Message, start: float, wire_bytes: int) -> None:
            now = sim.now
            self.busy_time += now - start
            self.bytes_transferred += wire_bytes
            self.messages_transferred += 1
            if trace is not None:
                trace(machine, direction, start, now, wire_bytes)
            self.on_complete(msg)
            if waiting:
                done, args = next_waiting()
                push(heap, (done, seq_next(), deliver, args, None))
            else:
                self.busy = False

        def land(msg: Message) -> None:
            nonlocal free_at, hops
            hops -= 1
            busy = self.busy
            wire_bytes = msg.payload_bytes + overhead
            start = free_at if busy else sim.now
            free_at = done = start + (cpu if rate is None
                                      else cpu + wire_bytes / rate)
            if busy:
                wait((done, (msg, start, wire_bytes)))
            else:
                self.busy = True
                push(heap, (done, seq_next(), deliver,
                            (msg, start, wire_bytes), None))

        def arrive(msg: Message) -> None:
            nonlocal free_at, hops
            arrival = sim.now + latency_s
            if free_at > arrival and not hops:
                sim._events_processed += 1  # the elided link-latency hop
                wire_bytes = msg.payload_bytes + overhead
                start = free_at
                free_at = done = start + (cpu if rate is None
                                          else cpu + wire_bytes / rate)
                wait((done, (msg, start, wire_bytes)))
            else:
                hops += 1
                push(heap, (arrival, seq_next(), land, (msg,), None))

        def enqueue(msg: Message) -> None:
            raise SimulationError(
                f"direct enqueue on fused channel {machine}/{direction}; "
                "construct it with cancellable=True")

        self.enqueue = enqueue  # type: ignore[method-assign]
        return arrive


# ----------------------------------------------------------------------
# Transport: wires machine channels together
# ----------------------------------------------------------------------
class Transport:
    """Moves messages between machines via their TX/RX channels.

    Local traffic (worker and its colocated PS shard on the same machine)
    bypasses the NIC — ps-lite sends to self over loopback, which is not
    bandwidth-constrained — and is delivered after ``loopback_latency_s``.

    A remote message goes TX -> (fabric ->) link latency -> RX.  Where a
    machine's RX is a static FIFO channel, the RX itself takes messages
    as they leave the TX (or the fabric) and schedules a latency event
    only for those that may find it idle (:meth:`Channel.fuse_hop`);
    otherwise every hop is its own event that enqueues on the RX
    channel.  :meth:`register` picks per machine from what the channel
    it is handed already says.
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
        # machine -> callable taking a message that just left a TX (or
        # the fabric) towards that machine.
        self._forward: dict = {}
        # Hot-path bindings: the raw heap/sequence pair for the inlined
        # pushes below (the per-message event rate makes even the
        # ``Simulator.after`` frame measurable; the inline sites repeat
        # its exact arithmetic).
        self._heap = sim._heap
        self._seq_next = sim._seq.__next__
        self._local_cb = self._local_deliver
        # Optional shared core fabric: when set, all inter-machine
        # traffic serializes through it (oversubscribed switch model).
        self.fabric = fabric
        if fabric is not None:
            fabric.on_complete = self._on_fabric_done

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
        tx.on_complete = self._on_tx_done
        # RX completion delivers straight to the endpoint: a closure
        # over this machine's deliver callback skips the generic
        # `_local_deliver` dict-lookup chain on every received message.
        sim = self.sim

        def _rx_done(msg: Message, _sim=sim, _deliver=deliver) -> None:
            msg.deliver_time = _sim.now
            _deliver(msg)

        rx.on_complete = _rx_done
        if not rx.cancellable and isinstance(rx.queue, FifoQueue):
            self._forward[machine] = rx.fuse_hop(self.latency_s)
        else:
            heap = self._heap
            seq_next = self._seq_next
            latency = self.latency_s
            rx_enqueue = rx.enqueue

            def hop(msg: Message) -> None:
                # Inlined Simulator.after: one link-latency event.
                heappush(heap, (sim.now + latency, seq_next(), rx_enqueue,
                                (msg,), None))

            self._forward[machine] = hop

    def send(self, msg: Message) -> None:
        now = self.sim.now
        msg.enqueue_time = now
        if msg.src == msg.dst:
            # Inlined Simulator.after (same arithmetic, same sequence
            # counter): loopback delivery fires per local message.
            heappush(self._heap, (now + self.loopback_latency_s,
                                  self._seq_next(), self._local_cb,
                                  (msg,), None))
        else:
            self._tx[msg.src].enqueue(msg)

    def _on_tx_done(self, msg: Message) -> None:
        if msg.kind is MsgKind.NOISE:
            return  # background traffic terminates at the wire
        if self.fabric is not None:
            self.fabric.enqueue(msg)
        else:
            self._forward[msg.dst](msg)

    def _on_fabric_done(self, msg: Message) -> None:
        self._forward[msg.dst](msg)

    def _local_deliver(self, msg: Message) -> None:
        msg.deliver_time = self.sim.now
        self._deliver[msg.dst](msg)


def gbps_to_bytes_per_s(gbps: float) -> float:
    """Convert link rate in Gbit/s to bytes/s."""
    return gbps * 1e9 / 8.0
