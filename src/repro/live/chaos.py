"""Deterministic lossy-channel injection for the live data plane.

The paper's clusters run over NICs and switches that drop, delay, and
corrupt; our live stack (PR 2) ran over a perfect loopback.  This
module closes that gap without touching the kernel: a
:class:`ChaosChannel` wraps one connection's socket and sabotages the
*TX path* frame by frame — dropping, duplicating, delaying, or
corrupting — exactly as a :class:`~repro.sim.faults.ChaosFault` from
the run's :class:`~repro.sim.faults.FaultPlan` prescribes.  The
reliability layer in :mod:`repro.live.transport` (sequence numbers,
cumulative ``CHUNK_ACK``\\ s, Go-Back-N retransmission) must then
recover the exact clean byte stream — the property
``tests/live/test_chaos.py`` locks down.

Design constraints that make recovery tractable:

* **Frame granularity.**  :class:`~repro.live.transport.PrioritySender`
  writes exactly one wire frame per ``sendall`` call, so the channel
  mangles whole frames, never split ones.
* **Framing fields stay sane.**  Corruption flips payload bytes (or the
  CRC field for empty-payload frames), never the header's magic /
  length fields: TCP still delivers a parseable stream, the lenient
  :class:`~repro.live.wire.FrameDecoder` skips the CRC-failed frame,
  and retransmission repairs it.  Real bit rot inside TCP segments is
  overwhelmingly payload bytes for our frame sizes; header corruption
  would model a broken NIC, which is :class:`LinkFault` territory.
* **Determinism.**  All draws come from one ``numpy`` generator seeded
  with ``(plan.seed, "chaos", machine, peer)``, so a run's chaos is a
  pure function of the plan and the connection pair — two runs with the
  same plan sabotage the same frames (given the same frame sequence),
  which keeps robustness sweeps reproducible.
* **Shared schedule.**  Active windows come from
  :func:`repro.sim.faults.occurrences` — the *same* expansion (same
  jitter draws) the simulator's injector uses — evaluated against a
  wall clock shared across processes via the driver's ``epoch``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..sim.faults import ChaosFault, FaultPlan, occurrences
from .wire import CRC_OFFSET, HEADER_SIZE

#: Default schedule-expansion horizon: live runs are seconds long, so a
#: generous bound keeps periodic chaos faults active for any real run.
DEFAULT_HORIZON_S = 3600.0


def chaos_specs_for(plan: Optional[FaultPlan],
                    machine: int) -> List[Tuple[int, ChaosFault]]:
    """The plan's chaos faults that apply to ``machine``'s connections.

    Workers are machines ``0..W-1`` and servers ``W..W+S-1`` (the
    simulator's non-colocated layout); a spec with ``machine=-1``
    applies everywhere.  Returns ``(fault_index, spec)`` pairs so the
    channel's windows can be matched back to plan occurrences.
    """
    if plan is None:
        return []
    return [(i, s) for i, s in enumerate(plan.faults)
            if isinstance(s, ChaosFault)
            and (s.machine < 0 or s.machine == machine)]


class ChaosChannel:
    """A socket proxy that sabotages outgoing frames deterministically.

    Only :meth:`sendall` is intercepted; every other attribute (``recv``,
    ``close``, ``settimeout``, ...) proxies to the wrapped socket, so a
    :class:`~repro.live.transport.PrioritySender` and a reader thread
    can use the channel exactly like the raw socket.

    ``epoch`` is the shared CLOCK_MONOTONIC origin all processes of a
    run measure fault windows against (the driver passes its own start
    time to every child), so "chaos between t=1s and t=3s" means the
    same wall interval on every connection.
    """

    def __init__(self, sock, plan: FaultPlan, machine: int, peer: int,
                 epoch: float,
                 clock: Callable[[], float] = time.monotonic,
                 horizon_s: float = DEFAULT_HORIZON_S) -> None:
        self._sock = sock
        self.machine = machine
        self.peer = peer
        self.epoch = epoch
        self._clock = clock
        self._specs = chaos_specs_for(plan, machine)
        indices = {i for i, _ in self._specs}
        self._windows: List[Tuple[float, Optional[float], ChaosFault]] = [
            (occ.start, occ.end, occ.spec)
            for occ in occurrences(plan, horizon_s)
            if occ.index in indices
        ]
        # Domain-separated from the injector's (seed, index) streams;
        # 0x43414F53 spells "CAOS" (a fixed tag — str hash() is salted
        # per process and would break cross-process determinism).
        self._rng = np.random.default_rng(
            (plan.seed, 0x43414F53, machine, peer))
        self.dropped = 0
        self.duplicated = 0
        self.corrupted = 0
        self.delayed = 0
        self.frames_seen = 0

    def __getattr__(self, name: str):
        return getattr(self._sock, name)

    # ------------------------------------------------------------------
    def _active(self, now_s: float) -> List[ChaosFault]:
        return [spec for start, end, spec in self._windows
                if start <= now_s and (end is None or now_s < end)]

    def stats(self) -> Dict[str, int]:
        return {"frames_seen": self.frames_seen,
                "frames_dropped": self.dropped,
                "frames_duplicated": self.duplicated,
                "frames_corrupted": self.corrupted,
                "frames_delayed": self.delayed}

    def _corrupt(self, frame: bytes) -> bytes:
        """Flip one byte where recovery is possible: payload, or the CRC
        field when the frame carries no payload."""
        if len(frame) > HEADER_SIZE:
            pos = HEADER_SIZE + int(self._rng.integers(
                0, len(frame) - HEADER_SIZE))
        else:
            pos = CRC_OFFSET + int(self._rng.integers(0, 4))
        flip = 1 + int(self._rng.integers(0, 255))  # never a no-op XOR
        mangled = bytearray(frame)
        mangled[pos] ^= flip
        return bytes(mangled)

    def plan_frame(self, data: bytes) -> Tuple[float, List[bytes]]:
        """Decide one frame's fate: ``(delay_s, payloads_to_write)``.

        Draw order per frame is fixed (drop, dup, corrupt, delay — plus
        the corruption position/delay magnitude draws when triggered) so
        the consumed randomness, and therefore every later frame's
        fate, is independent of wall-clock timing.  Both the blocking
        :meth:`sendall` and the asyncio transport
        (:mod:`repro.live.aio.transport`) consume this single decision
        procedure, so a plan sabotages the same frame sequence
        identically on either substrate.
        """
        self.frames_seen += 1
        active = self._active(self._clock() - self.epoch)
        # Four trigger draws happen for *every* frame, active or not, so
        # the randomness consumed by frame N never depends on how the
        # wall clock interleaved earlier frames with fault windows.
        draws = self._rng.random(4)
        if not active:
            return 0.0, [data]
        drop = max(s.drop_rate for s in active)
        dup = max(s.dup_rate for s in active)
        corrupt = max(s.corrupt_rate for s in active)
        delay_specs = [s for s in active if s.delay_rate > 0]
        if draws[0] < drop:
            self.dropped += 1
            return 0.0, []
        payload = data
        if draws[2] < corrupt:
            self.corrupted += 1
            payload = self._corrupt(data)
        delay = 0.0
        if delay_specs:
            rate = max(s.delay_rate for s in delay_specs)
            bound = max(s.delay_s for s in delay_specs)
            if draws[3] < rate:
                self.delayed += 1
                delay = float(self._rng.uniform(0.0, bound))
        payloads = [payload]
        if draws[1] < dup:
            self.duplicated += 1
            payloads.append(payload)
        return delay, payloads

    def sendall(self, data: bytes) -> None:
        """Transmit one wire frame through the configured chaos."""
        delay, payloads = self.plan_frame(data)
        if delay > 0:
            time.sleep(delay)
        for payload in payloads:
            self._sock.sendall(payload)

