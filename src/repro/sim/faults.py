"""Deterministic fault injection for the cluster simulator.

The paper's evaluation (Section 5.3) argues priority scheduling matters
most when effective bandwidth is scarce and contended, yet the base
simulator only models clean static networks plus steady background
tenants.  This module adds the transient degradation real clusters are
dominated by (cf. Parameter Hub's rack-scale contention analysis):

* **stragglers** — a worker's compute slows by a factor, statically or
  intermittently (:class:`StragglerFault`, via
  ``SimWorker.fault_slowdown``);
* **link degradation / flaps** — a NIC channel's rate drops to a
  fraction of nominal (or to zero) for scheduled or seeded-random
  intervals (:class:`LinkFault`, via :meth:`Channel.set_rate`, which
  recomputes in-flight transmissions);
* **server stalls** — a PS shard's update consumer pauses and its work
  queue backs up (:class:`ServerStallFault`, via
  ``SimServerShard.pause``/``resume``).

A :class:`FaultPlan` bundles fault specs with a seed and rides on
:class:`~repro.sim.cluster.ClusterConfig`.  All randomness (occurrence
jitter) flows from per-fault ``numpy`` generators derived from
``(plan.seed, fault_index)``, so the same plan produces byte-identical
traces regardless of how fault events interleave — the determinism the
property tests in ``tests/sim`` lock down.

* **lossy channels** — frames are dropped, duplicated, delayed or
  corrupted on the wire (:class:`ChaosFault`).  The *live* stack
  injects these literally (:mod:`repro.live.chaos`) and recovers via
  retransmission; the simulator, whose network is a fluid-flow model
  with no frames to lose, interprets the same spec as the equivalent
  *goodput* degradation — ``(1-drop)(1-corrupt)/(1+dup)`` of nominal
  link rate — so one plan is meaningful on both substrates.

A :class:`FaultPlan` is substrate-neutral: :func:`occurrences` expands
its seeded schedule into explicit ``(start, end)`` windows, which is
how the live driver and chaos channel replay exactly the occurrence
timing (including jitter draws) the simulator's injector would produce.

Timing faults are *lossless*: they reshape timing, never drop or
duplicate bytes, so every simulator invariant (conservation,
exactly-once updates) must keep holding under any plan.  A
:class:`ChaosFault` is lossy *on the wire* but lossless end-to-end:
the transport's recovery restores the exact byte stream, so the same
invariants hold after recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import ClusterSim


def _validate_schedule(name: str, start: float, duration: Optional[float],
                       period: Optional[float], jitter: float) -> None:
    if start < 0:
        raise ValueError(f"{name}: start must be >= 0")
    if duration is not None and duration <= 0:
        raise ValueError(f"{name}: duration must be positive")
    if jitter < 0:
        raise ValueError(f"{name}: jitter must be >= 0")
    if period is not None:
        if duration is None:
            raise ValueError(f"{name}: a repeating fault needs a duration")
        if period <= duration:
            raise ValueError(f"{name}: period must exceed duration "
                             "(occurrences may not overlap themselves)")


@dataclass(frozen=True)
class StragglerFault:
    """Multiply one worker's compute durations by ``factor``.

    ``duration=None`` makes the slowdown permanent; setting ``period``
    makes it intermittent — slow for ``duration`` seconds starting at
    ``start + k * period`` (plus a seeded jitter draw in
    ``[0, jitter)``), then recover, for every ``k`` until the run ends.
    """

    worker: int
    factor: float
    start: float = 0.0
    duration: Optional[float] = None
    period: Optional[float] = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError("StragglerFault: worker must be >= 0")
        if self.factor <= 0:
            raise ValueError("StragglerFault: factor must be positive")
        _validate_schedule("StragglerFault", self.start, self.duration,
                           self.period, self.jitter)


@dataclass(frozen=True)
class LinkFault:
    """Degrade one machine's NIC to ``rate_factor`` of nominal rate.

    ``rate_factor=0`` models a fully-down link: in-flight transmissions
    freeze (bytes stay on the wire) and resume on recovery, queued
    messages wait.  ``direction`` selects ``"tx"``, ``"rx"`` or
    ``"both"`` channels.  Scheduling semantics (``start`` /
    ``duration`` / ``period`` / ``jitter``) match
    :class:`StragglerFault`; a repeating ``LinkFault`` with nonzero
    ``jitter`` is a randomly-flapping link.
    """

    machine: int
    rate_factor: float = 0.0
    start: float = 0.0
    duration: Optional[float] = None
    period: Optional[float] = None
    jitter: float = 0.0
    direction: str = "both"

    def __post_init__(self) -> None:
        if self.machine < 0:
            raise ValueError("LinkFault: machine must be >= 0")
        if not (0.0 <= self.rate_factor < 1.0):
            raise ValueError("LinkFault: rate_factor must be in [0, 1)")
        if self.direction not in ("tx", "rx", "both"):
            raise ValueError("LinkFault: direction must be tx, rx or both")
        if self.duration is None and self.rate_factor == 0.0:
            raise ValueError("LinkFault: a permanently dead link can never "
                             "drain — give it a duration")
        _validate_schedule("LinkFault", self.start, self.duration,
                           self.period, self.jitter)

    @property
    def directions(self) -> Tuple[str, ...]:
        return ("tx", "rx") if self.direction == "both" else (self.direction,)


@dataclass(frozen=True)
class ServerStallFault:
    """Pause one PS shard's aggregation/update consumer.

    Pushes keep arriving while stalled, so the shard's work queue backs
    up and drains after recovery.  Scheduling semantics match
    :class:`StragglerFault`.
    """

    server: int
    start: float = 0.0
    duration: Optional[float] = None
    period: Optional[float] = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.server < 0:
            raise ValueError("ServerStallFault: server must be >= 0")
        if self.duration is None:
            raise ValueError("ServerStallFault: a permanently stalled server "
                             "can never drain — give it a duration")
        _validate_schedule("ServerStallFault", self.start, self.duration,
                           self.period, self.jitter)


@dataclass(frozen=True)
class ChaosFault:
    """Lossy-channel fault: drop/duplicate/delay/corrupt wire frames.

    ``machine`` targets one machine's connections (workers are machines
    ``0..W-1``, servers ``W..W+S-1``, matching the simulator's
    non-colocated layout); ``machine=-1`` targets every connection.
    Rates are independent per-frame probabilities drawn from a seeded
    per-connection generator; ``delay_s`` bounds the injected delay
    (each delayed frame waits ``uniform(0, delay_s)``).

    The live stack applies this literally on the TX path
    (:class:`repro.live.chaos.ChaosChannel`); the simulator applies the
    equivalent goodput factor ``(1-drop)(1-corrupt)/(1+dup)`` to the
    target machine's channels, because retransmission spends link
    capacity re-sending what chaos destroyed.  Scheduling semantics
    (``start``/``duration``/``period``/``jitter``) match
    :class:`StragglerFault`.
    """

    machine: int = -1
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.0
    start: float = 0.0
    duration: Optional[float] = None
    period: Optional[float] = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.machine < -1:
            raise ValueError("ChaosFault: machine must be >= 0, or -1 "
                             "for every connection")
        for name in ("drop_rate", "dup_rate", "corrupt_rate", "delay_rate"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise ValueError(f"ChaosFault: {name} must be in [0, 1)")
        if self.delay_s < 0:
            raise ValueError("ChaosFault: delay_s must be >= 0")
        if self.delay_rate > 0 and self.delay_s == 0:
            raise ValueError("ChaosFault: delay_rate needs a positive delay_s")
        if (self.drop_rate == self.dup_rate == self.corrupt_rate
                == self.delay_rate == 0.0):
            raise ValueError("ChaosFault: at least one rate must be positive")
        _validate_schedule("ChaosFault", self.start, self.duration,
                           self.period, self.jitter)

    @property
    def goodput_factor(self) -> float:
        """Fraction of nominal link rate left after recovery overhead."""
        return ((1.0 - self.drop_rate) * (1.0 - self.corrupt_rate)
                / (1.0 + self.dup_rate))


FaultSpec = Union[StragglerFault, LinkFault, ServerStallFault, ChaosFault]


#: Short stable tag per fault spec type: result/event labels, and the
#: ``"type"`` field of a serialized plan (``repro.analysis.runner``).
FAULT_TAGS = {StragglerFault: "straggler", LinkFault: "link",
              ServerStallFault: "stall", ChaosFault: "chaos"}


def fault_tag(spec: FaultSpec) -> str:
    """Short stable tag naming a fault spec's type (result/event labels)."""
    return FAULT_TAGS[type(spec)]


def fault_node(spec: FaultSpec) -> str:
    """The node label a fault's obs events carry, shared by substrates."""
    if isinstance(spec, StragglerFault):
        return f"worker{spec.worker}"
    if isinstance(spec, ServerStallFault):
        return f"server{spec.server}"
    machine = spec.machine
    return "all" if machine < 0 else f"machine{machine}"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, composable set of fault specs for one simulated run.

    The plan is pure configuration (hashable, comparable); the
    :class:`FaultInjector` turns it into simulator events.  Two runs of
    the same ``ClusterConfig`` carrying the same plan produce identical
    traces.
    """

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def scaled(self, time_scale: float) -> "FaultPlan":
        """Copy with every schedule time multiplied by ``time_scale`` —
        lets one dimensionless plan be fitted to a model's iteration
        time (see :mod:`repro.analysis.robustness`)."""
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")

        def scale(spec: FaultSpec) -> FaultSpec:
            return replace(
                spec,
                start=spec.start * time_scale,
                duration=None if spec.duration is None else spec.duration * time_scale,
                period=None if spec.period is None else spec.period * time_scale,
                jitter=spec.jitter * time_scale,
            )

        return FaultPlan(tuple(scale(s) for s in self.faults), seed=self.seed)


@dataclass(frozen=True)
class FaultOccurrence:
    """One expanded activation window of a fault spec.

    ``end=None`` means the occurrence never lifts (a permanent fault).
    """

    index: int           # position of the spec within the plan
    spec: FaultSpec
    start: float
    end: Optional[float]


def _occurrence_starts(plan: FaultPlan, index: int) -> Iterator[float]:
    """Start times of the plan's ``index``-th fault, in occurrence order:
    ``start + period * k`` plus one ``uniform(0, jitter)`` draw from the
    fault's own generator, so its draws do not depend on how other
    faults interleave.  The injector and :func:`occurrences` (the live
    replay) both read this one rule: the substrates fault in step."""
    spec = plan.faults[index]
    rng = np.random.default_rng((plan.seed, index))
    for k in count():
        start = spec.start + (spec.period or 0.0) * k
        if spec.jitter > 0:
            start += float(rng.uniform(0.0, spec.jitter))
        yield start
        if spec.period is None:
            return


def occurrences(plan: FaultPlan, horizon_s: float) -> List[FaultOccurrence]:
    """Expand a plan's seeded schedule into explicit windows.

    The windows are exactly when the simulator would fire (both follow
    :func:`_occurrence_starts`) — this is how the live driver and
    :class:`repro.live.chaos.ChaosChannel` replay a plan without a
    discrete-event engine.  Occurrences starting after ``horizon_s``
    are omitted.
    """
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    out: List[FaultOccurrence] = []
    for index, spec in enumerate(plan.faults):
        for start in _occurrence_starts(plan, index):
            if start > horizon_s:
                break
            end = None if spec.duration is None else start + spec.duration
            out.append(FaultOccurrence(index, spec, start, end))
    out.sort(key=lambda o: (o.start, o.index))
    return out


class FaultInjector:
    """Drives a :class:`FaultPlan` through the event engine.

    Modeled after :class:`~repro.sim.background.BackgroundTraffic`: the
    cluster constructs one injector per run and calls :meth:`start`
    alongside the workers.  Repeating faults reschedule themselves
    lazily and stop once every worker finished, letting the simulation
    drain.

    Overlapping faults compose: concurrent stragglers on one worker
    multiply, concurrent link faults on one channel multiply their rate
    factors, and nested server stalls count (the shard resumes when the
    last one lifts).
    """

    def __init__(self, ctx: "ClusterSim", plan: FaultPlan) -> None:
        self.ctx = ctx
        self.plan = plan
        self.activations = 0
        self.deactivations = 0
        # Active degradation factors, keyed by target.  Effects are
        # recomputed as products over these lists (never by dividing
        # back out) so lifting every fault restores *exactly* 1.0x.
        self._worker_factors: Dict[int, List[float]] = {}
        self._link_factors: Dict[Tuple[int, str], List[float]] = {}
        for spec in plan.faults:
            self._validate_target(spec)

    def _validate_target(self, spec: FaultSpec) -> None:
        if isinstance(spec, StragglerFault):
            if spec.worker >= self.ctx.n_workers:
                raise ValueError(f"StragglerFault targets worker {spec.worker} "
                                 f"but the cluster has {self.ctx.n_workers}")
        elif isinstance(spec, LinkFault):
            if spec.machine >= self.ctx.n_machines:
                raise ValueError(f"LinkFault targets machine {spec.machine} "
                                 f"but the cluster has {self.ctx.n_machines}")
        elif isinstance(spec, ServerStallFault):
            if spec.server >= self.ctx.n_servers:
                raise ValueError(f"ServerStallFault targets server {spec.server} "
                                 f"but the cluster has {self.ctx.n_servers}")
        elif isinstance(spec, ChaosFault):
            if spec.machine >= self.ctx.n_machines:
                raise ValueError(f"ChaosFault targets machine {spec.machine} "
                                 f"but the cluster has {self.ctx.n_machines}")
        else:
            raise TypeError(f"unknown fault spec {spec!r}")

    def release(self) -> None:
        """Drop ``ctx`` once the run is over (:meth:`ClusterSim.release`);
        the activation counters stay readable."""
        self.ctx = None

    def start(self) -> None:
        for index, spec in enumerate(self.plan.faults):
            self._schedule_occurrence(
                spec, _occurrence_starts(self.plan, index), occurrence=0)

    # ------------------------------------------------------------------
    # Occurrence scheduling
    # ------------------------------------------------------------------
    def _schedule_occurrence(self, spec: FaultSpec, starts: Iterator[float],
                             occurrence: int) -> None:
        when = max(next(starts), self.ctx.sim.now)
        self.ctx.sim.schedule_at(when, self._activate, spec, starts,
                                 occurrence)

    def _activate(self, spec: FaultSpec, starts: Iterator[float],
                  occurrence: int) -> None:
        if self.ctx.all_workers_done:
            return  # let the simulation drain and terminate
        self.activations += 1
        self._emit(spec, on=True)
        self._apply(spec, on=True)
        if spec.duration is not None:
            self.ctx.sim.schedule(spec.duration, self._deactivate,
                                  spec, starts, occurrence)

    def _deactivate(self, spec: FaultSpec, starts: Iterator[float],
                    occurrence: int) -> None:
        self.deactivations += 1
        self._emit(spec, on=False)
        self._apply(spec, on=False)
        if spec.period is not None and not self.ctx.all_workers_done:
            self._schedule_occurrence(spec, starts, occurrence + 1)

    def _emit(self, spec: FaultSpec, on: bool) -> None:
        obs = getattr(self.ctx, "obs", None)
        if obs is None:
            return
        from ..obs.events import EventKind
        obs.recorder.emit(
            EventKind.FAULT_ON if on else EventKind.FAULT_OFF,
            node=fault_node(spec), ts=self.ctx.sim.now,
            detail=fault_tag(spec))

    # ------------------------------------------------------------------
    # Effects
    # ------------------------------------------------------------------
    def _apply(self, spec: FaultSpec, on: bool) -> None:
        if isinstance(spec, StragglerFault):
            self._apply_straggler(spec, on)
        elif isinstance(spec, LinkFault):
            self._apply_link(spec, on)
        elif isinstance(spec, ChaosFault):
            self._apply_chaos(spec, on)
        else:
            self._apply_stall(spec, on)

    def _apply_straggler(self, spec: StragglerFault, on: bool) -> None:
        factors = self._worker_factors.setdefault(spec.worker, [])
        if on:
            factors.append(spec.factor)
        else:
            factors.remove(spec.factor)
        worker = self.ctx.workers[spec.worker]
        worker.fault_slowdown = float(np.prod(factors)) if factors else 1.0

    def _scale_link(self, machine: int, direction: str, factor: float,
                    on: bool) -> None:
        """Push (or remove) ``factor`` on one NIC direction and retune
        the channel to ``nominal * product`` of what is active."""
        factors = self._link_factors.setdefault((machine, direction), [])
        if on:
            factors.append(factor)
        else:
            factors.remove(factor)
        chans = (self.ctx.tx_channels if direction == "tx"
                 else self.ctx.rx_channels)
        channel = chans[machine]
        nominal = channel.nominal_rate
        if nominal is None:
            return  # infinite links cannot be fractionally degraded
        channel.set_rate(nominal * float(np.prod(factors)) if factors
                         else nominal)

    def _apply_link(self, spec: LinkFault, on: bool) -> None:
        for direction in spec.directions:
            self._scale_link(spec.machine, direction, spec.rate_factor, on)

    def _apply_chaos(self, spec: ChaosFault, on: bool) -> None:
        """Fluid-flow interpretation of a lossy channel.

        The simulator has no frames to drop, so chaos becomes the
        goodput the reliability layer would be left with after paying
        for retransmissions: dropped and corrupted frames are sent
        again (factor ``1-rate`` each) and duplicates spend capacity
        without delivering (``1/(1+dup)``).  Applied to both directions
        of the target machine's NIC (or every machine for ``-1``),
        composing multiplicatively with any active :class:`LinkFault`.
        """
        machines = (range(self.ctx.n_machines) if spec.machine < 0
                    else (spec.machine,))
        factor = spec.goodput_factor
        for machine in machines:
            for direction in ("tx", "rx"):
                self._scale_link(machine, direction, factor, on)

    def _apply_stall(self, spec: ServerStallFault, on: bool) -> None:
        server = self.ctx.servers[spec.server]
        if on:
            server.pause()
        else:
            server.resume()
