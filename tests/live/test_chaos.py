"""Chaos channel + reliable transport: recovery restores the clean stream.

The satellite property this file locks down: for ANY seeded
drop/duplicate/corrupt plan, the Go-Back-N machinery (sequence numbers,
cumulative CHUNK_ACKs, retransmission) recovers the exact message
stream a clean channel would have delivered — same messages, same
order, same bytes.  The pure bookkeeping classes are tested without
sockets or threads so hypothesis can drive thousands of cases; one
socketpair test exercises the full threaded sender/reader pipeline.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.aio import chaos_policy
from repro.live.chaos import ChaosChannel, chaos_specs_for
from repro.live.transport import (
    PrioritySender,
    ReliableInbox,
    ReliableOutbox,
    ReliableReceiver,
    RetryPolicy,
    TransportError,
)
from repro.live.wire import (
    HEADER_SIZE,
    MAGIC,
    FrameDecoder,
    WireKind,
    encode_frame,
)
from repro.sim.faults import ChaosFault, FaultPlan

pytestmark = pytest.mark.chaos


def chaos_plan(drop=0.0, dup=0.0, corrupt=0.0, delay_rate=0.0,
               delay_s=0.0, machine=-1, seed=0) -> FaultPlan:
    return FaultPlan((ChaosFault(machine=machine, drop_rate=drop,
                                 dup_rate=dup, corrupt_rate=corrupt,
                                 delay_rate=delay_rate, delay_s=delay_s),),
                     seed=seed)


class CaptureSock:
    """A sendall sink recording exactly what hit the 'wire'."""

    def __init__(self) -> None:
        self.buf = bytearray()

    def sendall(self, data: bytes) -> None:
        self.buf.extend(data)

    def drain(self) -> bytes:
        out = bytes(self.buf)
        self.buf.clear()
        return out


def make_channel(plan: FaultPlan, machine: int = 0) -> ChaosChannel:
    """A chaos channel whose fault window is always active (fake clock)."""
    sink = CaptureSock()
    chan = ChaosChannel(sink, plan, machine=machine, peer=1, epoch=0.0,
                        clock=lambda: 1.0)
    return chan


# ----------------------------------------------------------------------
# Bookkeeping units
# ----------------------------------------------------------------------
def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(ack_timeout_s=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(max_backoff_s=0.01, ack_timeout_s=0.25)
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=-0.1)


def test_retry_policy_backoff_grows_and_caps():
    import random
    policy = RetryPolicy(ack_timeout_s=0.1, backoff=2.0, max_backoff_s=0.5,
                         jitter=0.0)
    rng = random.Random(0)
    delays = [policy.deadline_after(k, rng) for k in range(6)]
    assert delays[0] == pytest.approx(0.1)
    assert delays[1] == pytest.approx(0.2)
    assert delays == sorted(delays)
    assert max(delays) == pytest.approx(0.5)  # capped


def test_outbox_cumulative_ack_and_retransmit():
    policy = RetryPolicy(ack_timeout_s=0.1, jitter=0.0, max_retries=3)
    outbox = ReliableOutbox(policy)
    for seq in range(3):
        outbox.record(seq, b"frame%d" % seq, now=0.0)
    assert len(outbox) == 3
    assert outbox.due(0.05) == []            # timer not due yet
    due = outbox.due(0.2)                    # due: all unacked, in order
    assert [s for s, _ in due] == [0, 1, 2]
    assert outbox.retransmits == 3
    assert outbox.ack(1) == 2                # cumulative: drops 0 and 1
    assert len(outbox) == 1
    assert outbox.retries == 0               # progress resets backoff


def test_outbox_gives_up_after_max_retries():
    policy = RetryPolicy(ack_timeout_s=0.01, jitter=0.0, max_retries=2)
    outbox = ReliableOutbox(policy)
    outbox.record(0, b"x", now=0.0)
    now = 0.0
    with pytest.raises(TransportError, match="seq=0"):
        for _ in range(10):
            now = outbox.next_deadline(now) + 0.001
            outbox.due(now)


outbox_ops = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("ack"), st.integers(min_value=-2, max_value=12))),
    min_size=1, max_size=50)


@given(ops=outbox_ops)
@settings(max_examples=300, deadline=None)
def test_outbox_ack_matches_the_filter_definition(ops):
    """``ack(upto)`` drops exactly ``{seq : seq <= upto}`` — checked
    against that filter over a plain dict, with gaps in the seq space,
    acks below, inside, above and repeated."""
    policy = RetryPolicy(ack_timeout_s=0.1, jitter=0.0, max_retries=10 ** 6)
    outbox, model = ReliableOutbox(policy), {}
    next_seq, now, acks = 0, 0.0, 0
    for op in ops:
        if op[0] == "record":
            next_seq += op[1] - 1  # ascending, not always contiguous
            frame = b"f%d" % next_seq
            outbox.record(next_seq, frame, now)
            model[next_seq] = frame
            next_seq += 1
        else:
            # Relative to the oldest pending seq, so acks land around it.
            upto = min(model, default=0) + op[1]
            acked = [s for s in model if s <= upto]
            for s in acked:
                del model[s]
            acks += bool(acked)
            assert outbox.ack(upto) == len(acked)
        assert len(outbox) == len(model)
        assert outbox.acks_received == acks
        outbox.next_deadline(now)  # an ack disarms the timer: re-arm it,
        now += 1_000.0             # then due() lists the whole backlog
        assert outbox.due(now) == sorted(model.items())


def test_inbox_classifies_deliver_duplicate_gap():
    inbox = ReliableInbox()
    assert inbox.cumulative_ack == -1
    assert inbox.accept(0) == "deliver"
    assert inbox.accept(0) == "duplicate"
    assert inbox.accept(2) == "gap"          # 1 was lost: discard 2
    assert inbox.accept(1) == "deliver"
    assert inbox.accept(2) == "deliver"      # retransmission arrives
    assert inbox.cumulative_ack == 2
    assert inbox.duplicates == 1 and inbox.gaps == 1


def test_lenient_decoder_skips_crc_failures():
    good = encode_frame(WireKind.PUSH, 0, 1, 0, 0, b"abcd", seq=0)
    bad = bytearray(encode_frame(WireKind.PUSH, 0, 2, 0, 0, b"efgh", seq=1))
    bad[HEADER_SIZE] ^= 0xFF                 # corrupt a payload byte
    tail = encode_frame(WireKind.PUSH, 0, 3, 0, 0, b"ijkl", seq=2)
    decoder = FrameDecoder(strict=False)
    decoder.feed(good + bytes(bad) + tail)
    keys = [f.key for f in decoder.frames()]
    assert keys == [1, 3]
    assert decoder.crc_failures == 1


# ----------------------------------------------------------------------
# ChaosChannel semantics
# ----------------------------------------------------------------------
def test_chaos_targeting_by_machine():
    plan = chaos_plan(drop=0.5, machine=2)
    assert chaos_specs_for(plan, 2)
    assert not chaos_specs_for(plan, 0)
    assert chaos_policy(plan, machine=0, peer=2, epoch=0.0) is None
    assert chaos_policy(None, machine=2, peer=0, epoch=0.0) is None
    assert isinstance(chaos_policy(plan, machine=2, peer=0, epoch=0.0),
                      ChaosChannel)


def test_chaos_is_deterministic_given_seed():
    frames = [encode_frame(WireKind.PUSH, 0, k, 0, 0, b"x" * 64, seq=k)
              for k in range(200)]

    def run(seed):
        chan = make_channel(chaos_plan(drop=0.2, dup=0.1, corrupt=0.1,
                                       seed=seed))
        for f in frames:
            chan.sendall(f)
        return chan._sock.drain(), tuple(sorted(chan.stats().items()))

    wire_a, stats_a = run(seed=7)
    wire_b, stats_b = run(seed=7)
    wire_c, stats_c = run(seed=8)
    assert wire_a == wire_b and stats_a == stats_b
    assert wire_a != wire_c


def test_chaos_outside_window_is_passthrough():
    plan = FaultPlan((ChaosFault(machine=-1, drop_rate=0.9,
                                 start=100.0, duration=1.0),), seed=0)
    sink = CaptureSock()
    chan = ChaosChannel(sink, plan, machine=0, peer=1, epoch=0.0,
                        clock=lambda: 1.0)  # t=1s, window opens at t=100s
    frame = encode_frame(WireKind.PUSH, 0, 1, 0, 0, b"hello", seq=0)
    for _ in range(50):
        chan.sendall(frame)
    assert sink.drain() == frame * 50
    assert chan.dropped == 0


def test_chaos_corruption_keeps_framing_parseable():
    """Corruption must hit payload/crc bytes only: the lenient decoder
    skips every mangled frame and never desynchronizes."""
    chan = make_channel(chaos_plan(corrupt=0.99, seed=3))
    frames = [encode_frame(WireKind.PUSH, 0, k, 0, 0, b"y" * 32, seq=k)
              for k in range(100)]
    for f in frames:
        chan.sendall(f)
    assert chan.corrupted > 50
    decoder = FrameDecoder(strict=False)
    decoder.feed(chan._sock.drain())
    survivors = list(decoder.frames())       # must not raise WireError
    assert decoder.crc_failures == chan.corrupted
    assert len(survivors) == len(frames) - chan.corrupted
    # Control frames have no payload: corruption flips CRC bytes instead.
    chan2 = make_channel(chaos_plan(corrupt=0.99, seed=4))
    bye = encode_frame(WireKind.BYE, 0, 0, 0, 0, seq=0)
    for _ in range(50):
        chan2.sendall(bye)
    decoder2 = FrameDecoder(strict=False)
    decoder2.feed(chan2._sock.drain())
    list(decoder2.frames())                  # must not raise
    assert decoder2.crc_failures == chan2.corrupted > 0


def test_chaos_delay_sleeps_but_delivers():
    chan = make_channel(chaos_plan(delay_rate=0.5, delay_s=0.001, seed=0))
    frame = encode_frame(WireKind.PUSH, 0, 1, 0, 0, b"z" * 16, seq=0)
    for _ in range(40):
        chan.sendall(frame)
    assert chan.delayed > 0
    assert chan._sock.drain() == frame * 40  # delayed, never lost


# ----------------------------------------------------------------------
# The recovery property (satellite #1)
# ----------------------------------------------------------------------
def recovered_messages(payloads, plan, max_rounds=200):
    """Drive Go-Back-N over a chaos channel until everything is acked.

    Sockets and threads stripped away: each round retransmits every
    unacked frame through the chaos channel, then the receiver decodes,
    dedups, reassembles, and acks cumulatively — exactly the protocol
    PrioritySender/ReliableReceiver run, in deterministic miniature.
    """
    frames = {seq: encode_frame(WireKind.PUSH, 0, seq, 0, 0, payload,
                                seq=seq)
              for seq, payload in enumerate(payloads)}
    chan = make_channel(plan)
    decoder = FrameDecoder(strict=False)
    inbox = ReliableInbox()
    out = []
    pending = dict(frames)
    rounds = 0
    while pending:
        rounds += 1
        assert rounds <= max_rounds, "recovery failed to converge"
        for seq in sorted(pending):
            chan.sendall(pending[seq])
        decoder.feed(chan._sock.drain())
        for frame in decoder.frames():
            if inbox.accept(frame.seq) == "deliver":
                out.append((frame.key, frame.payload))
        for seq in list(pending):
            if seq <= inbox.cumulative_ack:
                del pending[seq]
    return out


@settings(max_examples=30, deadline=None)
@given(
    payloads=st.lists(st.binary(min_size=1, max_size=64), min_size=1,
                      max_size=12),
    drop=st.floats(min_value=0.0, max_value=0.5),
    dup=st.floats(min_value=0.0, max_value=0.5),
    corrupt=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_recovered_stream_equals_clean_stream(payloads, drop, dup, corrupt,
                                              seed):
    """THE property: any seeded lossy plan, same recovered stream."""
    if drop == dup == corrupt == 0.0:
        drop = 0.1
    plan = chaos_plan(drop=drop, dup=dup, corrupt=corrupt, seed=seed)
    got = recovered_messages(payloads, plan)
    assert got == [(i, p) for i, p in enumerate(payloads)]


# ----------------------------------------------------------------------
# Full threaded pipeline over a real socketpair
# ----------------------------------------------------------------------
def test_priority_sender_recovers_over_lossy_socketpair():
    """PrioritySender + ReliableReceiver, chaos on the forward path,
    CHUNK_ACKs on the clean reverse path: every message lands intact."""
    sock_a, sock_b = socket.socketpair()
    plan = chaos_plan(drop=0.25, dup=0.1, corrupt=0.1, seed=5)
    policy = RetryPolicy(ack_timeout_s=0.05, jitter=0.1, max_retries=20,
                         seed=1)
    chaotic = ChaosChannel(sock_a, plan, machine=0, peer=1,
                           epoch=time.monotonic() - 1.0)
    sender = PrioritySender(chaotic, sender_id=0, chunk_bytes=512,
                            retry=policy)
    acker = PrioritySender(sock_b, sender_id=1)

    received = []
    done = threading.Event()

    def b_reader():
        receiver = ReliableReceiver(sender_for=lambda f: acker)
        while True:
            data = sock_b.recv(65536)
            if not data:
                return
            for msg in receiver.feed(data):
                received.append((msg.key, msg.payload))
                if len(received) == 20:
                    done.set()

    def a_reader():
        receiver = ReliableReceiver(sender_for=lambda f: sender)
        while True:
            try:
                data = sock_a.recv(65536)
            except OSError:
                return
            if not data:
                return
            for _ in receiver.feed(data):
                pass

    threading.Thread(target=b_reader, daemon=True).start()
    threading.Thread(target=a_reader, daemon=True).start()

    rng = np.random.default_rng(0)
    expect = []
    for k in range(20):
        payload = rng.integers(0, 256, size=int(rng.integers(1, 2000)),
                               dtype=np.uint8).tobytes()
        expect.append((k, payload))
        sender.send(WireKind.PUSH, k, 0, k, payload)
    sender.flush(timeout=30.0)
    assert done.wait(10.0), f"only {len(received)}/20 messages recovered"
    assert sorted(received) == expect
    assert chaotic.dropped > 0, "chaos must actually have bitten"
    stats = sender.stats()
    assert stats["frames_retransmitted"] > 0
    assert stats["unacked_frames"] == 0
    sender.close()
    acker.close()
    sock_a.close()
    sock_b.close()
