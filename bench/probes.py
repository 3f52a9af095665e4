"""Layer probes: one public component at a time, on generated inputs.

Probes are diagnostics.  Each belongs to the workload whose end-to-end
metric it should move (``metrics.LAYERS``) and runs only in that
workload's traced run; alone it proves nothing end to end.  ``k`` scales
the input size (1.0 at full scale, 0.05 for the tests); ``rng`` is the
seeded ``numpy`` generator every random input is drawn from.
"""

from __future__ import annotations

import socket
import threading
import time
from statistics import median
from typing import Callable, Dict, List


def _n(base: int, k: float) -> int:
    return max(8, int(base * k))


def _median_of(fn: Callable[[], float], tries: int = 3) -> float:
    """Median of a few timings: probes run once per traced run, so the
    repetition that steadies an end-to-end metric happens here."""
    return median(fn() for _ in range(tries))


# ----------------------------------------------------------------------
# sim.engine
# ----------------------------------------------------------------------
def engine_chain_events_per_s(k: float) -> float:
    """Self-feeding ``after`` chain; every tenth event also schedules and
    cancels a handle (the lazily-skipped heap entries' branch)."""
    from repro.sim.engine import Simulator

    def once() -> float:
        sim = Simulator()
        remaining = [_n(300_000, k)]

        def noop() -> None:
            pass

        def tick() -> None:
            r = remaining[0]
            if r <= 0:
                return
            remaining[0] = r - 1
            if r % 10 == 0:
                sim.schedule(2e-6, noop).cancel()
            sim.after(1e-6, tick)

        sim.after(0.0, tick)
        t0 = time.perf_counter()
        sim.run()
        return sim.events_processed / (time.perf_counter() - t0)

    return _median_of(once)


def engine_wave_events_per_s(k: float, wave: int = 2048) -> float:
    """Homogeneous ``BatchFire`` waves bulk-scheduled one after another —
    the shape the vectorized path was built for."""
    from repro.sim.engine import BatchFire, Simulator

    def once() -> float:
        n_events = _n(300_000, k)
        sim = Simulator(batch=True)
        state = {"remaining": n_events}

        def fire(*_args) -> None:
            pass

        def fire_batch(times, _argss) -> None:
            r = state["remaining"]
            if r <= 0:
                return
            n = min(wave, r)
            state["remaining"] = r - n
            base = times[-1]
            sim.schedule_at_batch(
                [base + 1e-6 * (i + 1) for i in range(n)], bf)

        bf = BatchFire(fire, fire_batch)
        first = min(wave, n_events)
        state["remaining"] = n_events - first
        sim.schedule_at_batch([1e-6 * (i + 1) for i in range(first)], bf)
        t0 = time.perf_counter()
        sim.run()
        return sim.events_processed / (time.perf_counter() - t0)

    return _median_of(once)


# ----------------------------------------------------------------------
# sim.network
# ----------------------------------------------------------------------
def network_msgs_per_s(k: float, rng, discipline: str,
                       cancellable: bool) -> float:
    """Slice-sized messages from machine 0 to machine 1 over a bare
    ``Simulator`` + ``Transport``, in bursts of 1024 so queue depth is a
    link's, not the whole run's.  With ``cancellable`` the rate is
    retuned mid-burst (a transfer in flight), as tenancy re-sharing and
    link faults do."""
    from repro.sim.engine import Simulator
    from repro.sim.network import (Channel, Message, MsgKind, Role,
                                   Transport, make_queue)

    n, burst, rate = _n(200_000, k), 1024, 1.25e9
    priorities = rng.integers(0, 16, size=n).tolist()
    sim = Simulator()
    transport = Transport(sim)
    state = {"sent": 0, "delivered": 0}
    links: List[Channel] = []

    def send_burst() -> None:
        lo = state["sent"]
        hi = min(n, lo + burst)
        state["sent"] = hi
        for i in range(lo, hi):
            transport.send(Message(MsgKind.PUSH, i, 200_000, priorities[i],
                                   0, 1, Role.SERVER))

    def deliver(_msg) -> None:
        d = state["delivered"] = state["delivered"] + 1
        if cancellable and d % burst == burst // 2:
            new_rate = rate / 2 if (d // burst) % 2 else rate
            for ch in links:
                ch.set_rate(new_rate)
        if d == state["sent"] and d < n:
            send_burst()

    for machine in (0, 1):
        tx = Channel(sim, machine, "tx", rate, make_queue(discipline),
                     on_complete=lambda _m: None, per_message_cpu_s=5e-6,
                     cancellable=cancellable)
        rx = Channel(sim, machine, "rx", rate, make_queue("fifo"),
                     on_complete=lambda _m: None, per_message_cpu_s=5e-6,
                     cancellable=cancellable)
        transport.register(machine, tx, rx, deliver)
        links += [tx, rx]
    t0 = time.perf_counter()
    send_burst()
    sim.run()
    wall = time.perf_counter() - t0
    if state["delivered"] != n:
        raise RuntimeError(f"network probe delivered {state['delivered']} "
                           f"of {n} messages")
    return n / wall


# ----------------------------------------------------------------------
# repro.placement
# ----------------------------------------------------------------------
def placement_plan_ms(seed: int) -> float:
    """``plan_placement`` of resnet50's p3 keys onto 256 servers, balanced
    plus two-tier (the ladder's planning cost at its widest rung)."""
    from repro.models import get_model
    from repro.placement import KeyDemand, PlacementSpec, plan_placement
    from repro.strategies import get_strategy

    import numpy as np

    placed = get_strategy("p3").plan(get_model("resnet50"), 256,
                                     np.random.default_rng(seed))
    demands = [KeyDemand(pk.key, pk.params, pk.priority) for pk in placed]

    def once() -> float:
        t0 = time.perf_counter()
        plan_placement(demands, 256, PlacementSpec(policy="balanced"))
        plan_placement(demands, 256,
                       PlacementSpec(policy="two_tier", group_size=8),
                       n_workers=256)
        return (time.perf_counter() - t0) * 1e3

    return _median_of(once)


# ----------------------------------------------------------------------
# analysis.runner / analysis.cache
# ----------------------------------------------------------------------
def runner_doc_roundtrip_us(points) -> float:
    """``SimPoint``/``PointResult`` to and from their JSON documents — the
    per-point work ``run_grid`` adds over driving the simulator by hand."""
    from repro.analysis.runner import PointResult, SimPoint

    result = PointResult(1234.5, 0.25, 100_000)

    def once() -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            for point in points:
                SimPoint.from_doc(point.to_doc())
                PointResult.from_doc(result.to_doc())
        return (time.perf_counter() - t0) / (20 * len(points)) * 1e6

    return _median_of(once)


def cache_op_us(cache_dir, docs) -> Dict[str, float]:
    """``SimCache`` put, hit and miss on a fresh directory."""
    from repro.analysis.cache import SimCache

    cache = SimCache(cache_dir)
    result = {"throughput": 1234.5, "mean_iteration_time": 0.25,
              "events_processed": 100_000}
    timings = {}
    for name, op in (("cache.get_miss_us", cache.get),
                     ("cache.put_us", lambda d: cache.put(d, result)),
                     ("cache.get_hit_us", cache.get)):
        t0 = time.perf_counter()
        for doc in docs:
            op(doc)
        timings[name] = (time.perf_counter() - t0) / len(docs) * 1e6
    if cache.stats() != {"hits": len(docs), "misses": len(docs)}:
        raise RuntimeError(f"cache probe saw {cache.stats()}")
    return timings


# ----------------------------------------------------------------------
# repro.tenancy
# ----------------------------------------------------------------------
def tenancy_sched_us_per_decision(k: float) -> float:
    """One admission decision of ``JobScheduler``: a FIFO scan of the
    queue, the admissions it grants, and one completion freeing slots."""
    from repro.tenancy import ClusterLease, JobScheduler, JobSpec

    def once() -> float:
        jobs = [JobSpec(name=f"job{i:04d}", tenant=f"tenant{i % 8}",
                        n_workers=2, arrival_s=float(i // 4))
                for i in range(_n(400, k))]
        sched = JobScheduler(jobs, ClusterLease(16))
        now, decisions = 0.0, 0
        t0 = time.perf_counter()
        while not sched.done:
            for job in sched.next_admissions(now):
                sched.admit(job, now)
            decisions += 1
            if sched.running:
                sched.complete(sched.running[0], now)
            now += 0.25
        return (time.perf_counter() - t0) / decisions * 1e6

    return _median_of(once)


def shaper_reserve_us(k: float) -> float:
    """``FairShaper.reserve`` with 8 backlogged tenants (weights 1..4) on
    an injected clock, so nothing sleeps and nothing depends on the host."""
    from repro.tenancy import FairShaper

    def once() -> float:
        now = [0.0]
        shaper = FairShaper(1e8, burst_bytes=65_536, clock=lambda: now[0])
        names = [f"tenant{i}" for i in range(8)]
        for i, name in enumerate(names):
            shaper.add_tenant(name, weight=float(1 + i % 4))
        n = _n(40_000, k)
        t0 = time.perf_counter()
        for i in range(n):
            now[0] += 5e-5
            shaper.reserve(names[i % 8], 8192)
        return (time.perf_counter() - t0) / n * 1e6

    return _median_of(once)


# ----------------------------------------------------------------------
# live.wire
# ----------------------------------------------------------------------
def wire_codec(k: float, rng) -> Dict[str, float]:
    """``split_message`` at 8 KiB and 1 KiB chunks, then the receive
    side: ``FrameDecoder`` fed 64 KiB reads plus ``Reassembler``."""
    from repro.live.wire import (FrameDecoder, Reassembler, WireKind,
                                 split_message)

    payload = rng.bytes(1 << 20)
    n_msgs = _n(24, k)

    def encode(chunk: int) -> float:
        t0 = time.perf_counter()
        for i in range(n_msgs):
            split_message(WireKind.PUSH, 0, i, 0, i, payload, chunk)
        return time.perf_counter() - t0

    out = {}
    enc8 = _median_of(lambda: encode(8192))
    out["wire.encode_mb_per_s.c8k"] = n_msgs * len(payload) / 1e6 / enc8
    out["wire.encode_us_per_frame"] = \
        enc8 / (n_msgs * (len(payload) // 8192)) * 1e6
    out["wire.encode_mb_per_s.c1k"] = \
        n_msgs * len(payload) / 1e6 / _median_of(lambda: encode(1024))

    stream = b"".join(b"".join(split_message(WireKind.PUSH, 0, i, 0, i,
                                             payload, 8192))
                      for i in range(n_msgs))

    def decode() -> float:
        decoder, reassembler, done = FrameDecoder(), Reassembler(), 0
        t0 = time.perf_counter()
        for off in range(0, len(stream), 65_536):
            decoder.feed(stream[off:off + 65_536])
            for frame in decoder.frames():
                if reassembler.add(frame) is not None:
                    done += 1
        wall = time.perf_counter() - t0
        if done != n_msgs:
            raise RuntimeError(f"decoded {done} of {n_msgs} messages")
        return wall

    out["wire.decode_mb_per_s"] = \
        n_msgs * len(payload) / 1e6 / _median_of(decode)
    return out


# ----------------------------------------------------------------------
# live.transport
# ----------------------------------------------------------------------
def chunksched_pop_us(k: float, rng) -> float:
    """``ChunkScheduler.pop_chunk`` with 64 messages of mixed priority
    pending, each 8 chunks long."""
    from repro.live.transport import ChunkScheduler
    from repro.live.wire import WireKind

    payload = bytes(65_536)
    priorities = rng.integers(0, 8, size=64).tolist()

    def once() -> float:
        pops, wall = 0, 0.0
        for _ in range(_n(40, k)):
            sched = ChunkScheduler(8192)
            for key, priority in enumerate(priorities):
                sched.push(WireKind.PUSH, key, 0, priority, payload)
            t0 = time.perf_counter()
            while sched.pop_chunk() is not None:
                pops += 1
            wall += time.perf_counter() - t0
        return wall / pops * 1e6

    return _median_of(once)


def bucket_reserve_us(k: float) -> float:
    """``TokenBucket.reserve`` on the real clock at a rate it never
    waits for."""
    from repro.live.transport import TokenBucket

    def once() -> float:
        bucket = TokenBucket(1e12)
        n = _n(200_000, k)
        t0 = time.perf_counter()
        for _ in range(n):
            bucket.reserve(8192)
        return (time.perf_counter() - t0) / n * 1e6

    return _median_of(once)


def outbox_record_ack_us(k: float) -> float:
    """``ReliableOutbox``: record a frame, cumulative-ack every 64th."""
    from repro.live.transport import ReliableOutbox, RetryPolicy

    frame = bytes(8232)

    def once() -> float:
        outbox = ReliableOutbox(RetryPolicy())
        n = _n(200_000, k)
        t0 = time.perf_counter()
        for seq in range(n):
            outbox.record(seq, frame, 0.0)
            if seq % 64 == 63:
                outbox.ack(seq)
        return (time.perf_counter() - t0) / n * 1e6

    return _median_of(once)


class _Receiver(threading.Thread):
    """Drains one end of a socketpair into a decoder; records when each
    logical message completed and how many wire bytes had arrived."""

    def __init__(self, sock: socket.socket, n_messages: int) -> None:
        super().__init__(daemon=True)
        self.sock = sock
        self.n_messages = n_messages
        self.completed: Dict[int, float] = {}       # key -> arrival time
        self.arrivals: List[tuple] = []             # (time, wire bytes so far)
        self.error: List[BaseException] = []

    def run(self) -> None:
        from repro.live.wire import FrameDecoder, Reassembler

        decoder, reassembler, received = FrameDecoder(), Reassembler(), 0
        try:
            while len(self.completed) < self.n_messages:
                data = self.sock.recv(65_536)
                if not data:
                    raise RuntimeError("sender closed early")
                received += len(data)
                now = time.perf_counter()
                self.arrivals.append((now, received))
                decoder.feed(data)
                for frame in decoder.frames():
                    msg = reassembler.add(frame)
                    if msg is not None:
                        self.completed[msg.key] = now
        except BaseException as exc:  # noqa: BLE001 - re-raised by join_ok
            self.error.append(exc)

    def join_ok(self, timeout: float) -> None:
        self.join(timeout)
        if self.error:
            raise self.error[0]
        if self.is_alive():
            raise RuntimeError("receiver did not finish in time")


def _sender_pair(n_messages: int, **sender_kwargs):
    from repro.live.transport import PrioritySender

    left, right = socket.socketpair()
    right.settimeout(30.0)
    receiver = _Receiver(right, n_messages)
    receiver.start()
    return left, right, PrioritySender(left, sender_id=0, **sender_kwargs), \
        receiver


def sender_goodput_mb_per_s(k: float, rng) -> float:
    """Unshaped ``PrioritySender`` -> socketpair -> decoder, 8 KiB chunks."""
    from repro.live.wire import WireKind

    n_messages = _n(64, k)
    payload = rng.bytes(262_144)
    left, right, sender, receiver = _sender_pair(n_messages,
                                                 chunk_bytes=8192)
    try:
        t0 = time.perf_counter()
        for key in range(n_messages):
            sender.send(WireKind.PUSH, key, 0, key % 8, payload)
        receiver.join_ok(60.0)
        wall = max(receiver.completed.values()) - t0
        sender.close()
    finally:
        left.close()
        right.close()
    return n_messages * len(payload) / 1e6 / wall


def sender_rate_error_pct(k: float) -> float:
    """Shaping accuracy in steady state.

    A token bucket starts full, so the first ``burst_bytes`` leave at
    line rate; measured from t=0 over a short transfer that burst *is*
    the error (32 768 B of 400 000 B = 8.2 %, the ``shaping_error`` the
    old snapshots carried).  Here the window opens only after twice the
    burst has arrived and spans at least 2 s at full scale.
    """
    from repro.live.transport import TokenBucket
    from repro.live.wire import WireKind

    rate, burst = 4_000_000.0, 32_768
    n_messages = _n(40, k)  # 40 x 256 KiB = 10.5 MB = 2.6 s at 4 MB/s
    payload = bytes(262_144)
    left, right, sender, receiver = _sender_pair(
        n_messages, shaper=TokenBucket(rate, burst_bytes=burst),
        chunk_bytes=16_384)
    try:
        for key in range(n_messages):
            sender.send(WireKind.PUSH, key, 0, 0, payload)
        receiver.join_ok(60.0)
        sender.close()
    finally:
        left.close()
        right.close()
    steady = [(t, b) for t, b in receiver.arrivals if b >= 2 * burst]
    (t0, b0), (t1, b1) = steady[0], steady[-1]
    measured = (b1 - b0) / (t1 - t0)
    return abs(measured - rate) / rate * 100.0


def sender_preempt_delay_ms(k: float) -> float:
    """How long a 4 KB urgent message waits behind a 2 MB bulk one on a
    5 MB/s shaped link.  Ideal is one chunk time (8 KiB / 5 MB/s = 1.6
    ms) plus its own: preemption happens between chunks."""
    from repro.live.transport import TokenBucket
    from repro.live.wire import WireKind

    bulk, urgent = bytes(_n(2_000_000, k)), bytes(4096)

    def once() -> float:
        left, right, sender, receiver = _sender_pair(
            2, shaper=TokenBucket(5e6, burst_bytes=32_768), chunk_bytes=8192)
        try:
            sender.send(WireKind.PUSH, 0, 0, 10, bulk)
            while not receiver.arrivals or \
                    receiver.arrivals[-1][1] < len(bulk) // 4:
                if receiver.error:
                    raise receiver.error[0]
                time.sleep(0.001)
            t_send = time.perf_counter()
            sender.send(WireKind.PUSH, 1, 0, 0, urgent)
            receiver.join_ok(30.0)
            sender.close()
        finally:
            left.close()
            right.close()
        return (receiver.completed[1] - t_send) * 1e3

    return _median_of(once)


# ----------------------------------------------------------------------
# repro.kvstore
# ----------------------------------------------------------------------
def kvstore_apply_mb_per_s(k: float, rng) -> float:
    """``ServerShard``: two workers push every key, then it is pulled —
    the arithmetic a live shard does per round, without the sockets."""
    from repro.kvstore.server import ServerShard
    from repro.training.optim import SGD

    n_keys, size = 67, 5_000
    shard = ServerShard(0, 2, SGD(lr=0.005, momentum=0.9))
    grads = [rng.standard_normal(size) for _ in range(n_keys)]
    for key in range(n_keys):
        shard.init_key(key, grads[key])

    def once() -> float:
        rounds = _n(60, k)
        t0 = time.perf_counter()
        for _ in range(rounds):
            for key in range(n_keys):
                shard.push(0, key, grads[key])
                shard.push(1, key, grads[key])
                shard.pull(key)
        wall = time.perf_counter() - t0
        return rounds * n_keys * size * 8 * 3 / 1e6 / wall

    return _median_of(once)
