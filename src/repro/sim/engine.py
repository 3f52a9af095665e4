"""Discrete-event simulation engine.

A minimal, deterministic event loop: entities schedule callbacks at
absolute or relative simulated times, and :meth:`Simulator.run` executes
them in time order.  Ties are broken by insertion sequence so that runs
are exactly reproducible regardless of heap internals.

The engine is deliberately free of any networking or ML concepts; the
cluster model in :mod:`repro.sim.cluster` builds on top of it.

Hot-path design (this loop dominates every sweep's wall time, see
``docs/performance.md``):

* heap entries are plain ``(time, seq, fn, args, handle)`` tuples, so
  ordering is resolved by C-level tuple comparison on ``(time, seq)``
  instead of a Python ``__lt__`` — the sequence number is unique, so the
  comparison never reaches ``fn``;
* :meth:`Simulator.after` is the fire-and-forget fast path: it skips
  allocating an :class:`EventHandle` entirely (``handle`` is ``None``)
  for the vast majority of events that are never cancelled.  Hot
  components push such entries onto ``_heap`` themselves, with the same
  arithmetic and the same sequence counter;
* :meth:`Simulator.run` is one loop: it pops each entry exactly once
  and runs with the cyclic garbage collector paused — per-event garbage
  is acyclic and freed by refcounting, so collection passes only add
  jitter.  So is a finished run: once its engine drains, a cluster cuts
  the cycles its wiring made (``ClusterSim.release``), and reference
  counting frees it as soon as its owner lets go;
* ``pending`` is derived — heap length minus the cancelled entries the
  loop has not reached yet — so neither a push nor a pop maintains a
  counter for it, and it is exact whenever a callback reads it.

``events_processed`` counts *protocol* events.  A component that can
prove one of its events would decide nothing may skip scheduling it and
credit the counter instead (the transport does for a link-latency hop
towards a busy receive channel, see ``Channel.fuse_hop``), so the count
does not depend on which path a channel takes.  ``pending`` counts
scheduled callbacks, i.e. live heap entries.

``REPRO_SIM_DEBUG`` (or ``Simulator(debug=True)``) dispatches every
event through :meth:`Simulator.step` with periodic heap-invariant and
pending-counter verification; so do ``until=`` / ``max_events=`` and a
per-instance ``step`` wrapper (:class:`~repro.sim.invariants.InvariantMonitor`).
"""

from __future__ import annotations

import gc
import itertools
import os
import sys
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: Read at ``Simulator()`` time so a test can set it per instance.
DEBUG_ENV = "REPRO_SIM_DEBUG"

_TRUE = frozenset(("1", "true", "yes", "on"))
_FALSE = frozenset(("0", "false", "no", "off", ""))


def _env_flag(name: str, default: bool) -> bool:
    value = os.environ.get(name)
    if value is None:
        return default
    value = value.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ValueError(f"{name}={value!r}: expected a boolean flag")


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class BatchFire:
    """Shim for ``bench/probes.py::engine_wave_events_per_s``; remove it,
    :meth:`Simulator.schedule_at_batch` and ``Simulator(batch=)`` together
    with that probe.  Batch-firing is gone: ``fire_batch`` is never
    called and every entry fires through ``fire``."""

    __slots__ = ("fire",)

    def __init__(self, fire: Callable[..., None], fire_batch: object):
        self.fire = fire

    def __call__(self, *args: Any) -> None:
        self.fire(*args)


class EventHandle:
    """Cancellable reference to a scheduled callback.

    Cancellation is lazy: the heap entry stays in place and is skipped
    when popped, which keeps :meth:`Simulator.cancel` O(1).  The handle
    keeps a back-reference to its simulator so cancelling it directly
    (``handle.cancel()``) keeps :attr:`Simulator.pending` exact.

    ``fired`` is set by the pop loops: cancelling a handle whose event
    already ran is a no-op (its heap entry is gone, so counting it as a
    cancelled-but-queued entry would corrupt ``pending``).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., None],
                 args: Tuple[Any, ...],
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent; a no-op after
        the event has already fired."""
        if not self.cancelled and not self.fired:
            self.cancelled = True
            if self._sim is not None:
                self._sim._dead += 1

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self.cancelled
                 else "fired" if self.fired else "pending")
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulator:
    """Binary-heap event loop with a floating-point clock in seconds.

    ``debug`` defaults to ``$REPRO_SIM_DEBUG`` (off); passing a boolean
    overrides the environment for this instance.  ``batch`` is accepted
    and ignored (see :class:`BatchFire`).
    """

    def __init__(self, *, debug: Optional[bool] = None,
                 batch: Optional[bool] = None) -> None:
        # Entries: (time, seq, fn, args, handle-or-None).
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self._events_processed = 0
        # Cancelled entries still in the heap (lazy cancellation).
        self._dead = 0
        self._running = False
        self.debug = (_env_flag(DEBUG_ENV, False)
                      if debug is None else bool(debug))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None],
                 *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., None],
                    *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        seq = next(self._seq)
        handle = EventHandle(time, seq, fn, args, self)
        heappush(self._heap, (time, seq, fn, args, handle))
        return handle

    def after(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`EventHandle`.

        The hot path for events that are never cancelled (message
        deliveries, compute-segment completions): skipping the handle
        allocation saves an object per event.  Semantics are otherwise
        identical to ``schedule`` — same ordering, same validation.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(self._heap,
                 (self.now + delay, next(self._seq), fn, args, None))

    def schedule_at_batch(self, times: Sequence[float],
                          fn: Callable[..., None],
                          args_seq: Optional[Sequence[tuple]] = None) -> None:
        """Fire-and-forget ``fn`` at each of ``times`` (non-decreasing);
        a plain loop of pushes.  Shim, see :class:`BatchFire`."""
        if len(times) and times[0] < self.now:
            raise SimulationError(
                f"cannot schedule at t={times[0]} before current "
                f"time t={self.now}")
        for i, time in enumerate(times):
            heappush(self._heap,
                     (time, next(self._seq), fn,
                      () if args_seq is None else args_seq[i], None))

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously scheduled event."""
        handle.cancel()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still in the queue (O(1))."""
        return len(self._heap) - self._dead

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def snapshot(self) -> dict:
        """Engine state for observability exports (:mod:`repro.obs`):
        clock, events executed, and queue depth — read-only."""
        return {
            "now_s": self.now,
            "events_processed": self._events_processed,
            "pending_events": self.pending,
        }

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap:
            handle = heap[0][4]
            if handle is None or not handle.cancelled:
                return heap[0][0]
            heappop(heap)
            self._dead -= 1
        return None

    def step(self) -> bool:
        """Execute the single next event.  Returns False when none remain."""
        heap = self._heap
        while heap:
            time, _seq, fn, args, handle = heappop(heap)
            if handle is not None:
                if handle.cancelled:
                    self._dead -= 1
                    continue
                handle.fired = True
            self.now = time
            self._events_processed += 1
            fn(*args)
            return True
        return False

    def check_invariants(self) -> None:
        """Verify heap ordering and the cancelled-entry counter (O(n)).

        Run automatically every few thousand events in debug mode;
        callable directly from tests.  Raises :class:`AssertionError`
        on a broken heap and :class:`SimulationError` on a counter
        mismatch.
        """
        heap = self._heap
        for i in range(1, len(heap)):
            parent = heap[(i - 1) >> 1]
            # (time, seq, ...) with unique seq: never compares payloads.
            if heap[i] < parent:
                raise AssertionError(
                    f"heap invariant violated at index {i}: "
                    f"{heap[i][:2]} < parent {parent[:2]}")
        dead = sum(1 for e in heap if e[4] is not None and e[4].cancelled)
        if dead != self._dead:
            raise SimulationError(
                f"cancelled-entry counter {self._dead} != cancelled heap "
                f"entries {dead}")

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have fired.  Returns the final clock
        value.  ``events_processed`` and ``pending`` are exact whenever
        a callback reads them."""
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            # Per-event garbage (tuples, messages, handles) is acyclic
            # and freed by refcounting; collector passes only cost time.
            gc.disable()
        # The event loop is single-threaded; widening the bytecode
        # switch interval removes periodic GIL-check overhead.
        old_switch = sys.getswitchinterval()
        sys.setswitchinterval(0.5)
        try:
            # Instrumentation (e.g. the invariant monitor) may wrap
            # ``step`` per instance; dispatch through it in that case so
            # wrappers observe every event.
            if (until is not None or max_events is not None or self.debug
                    or "step" in self.__dict__):
                self._run_stepwise(until, max_events)
            else:
                heap = self._heap
                pop = heappop
                while heap:
                    time, _seq, fn, args, handle = pop(heap)
                    if handle is not None:
                        if handle.cancelled:
                            self._dead -= 1
                            continue
                        handle.fired = True
                    self.now = time
                    self._events_processed += 1
                    fn(*args)
        finally:
            self._running = False
            sys.setswitchinterval(old_switch)
            if gc_was_enabled:
                gc.enable()
        return self.now

    def _run_stepwise(self, until: Optional[float],
                      max_events: Optional[int]) -> None:
        """The bounded / instrumented wrapper around :meth:`step`, with
        periodic invariant checks in debug mode."""
        fired = 0
        while max_events is None or fired < max_events:
            nxt = self.peek_time()
            if nxt is None:
                break
            if until is not None and nxt > until:
                self.now = until
                break
            self.step()
            fired += 1
            if self.debug and not fired & 4095:
                self.check_invariants()
        if self.debug:
            self.check_invariants()
