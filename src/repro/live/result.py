"""What a live run returns and how it fails (repro.live.result).

:func:`repro.live.aio.run_live_aio` is the live counterpart of
:func:`repro.sim.simulate`; this module holds its result type, the
errors its nodes and driver raise, and the two checks every run ends
with — replica agreement and the synthesized fault-event stream.  It
imports neither sockets nor ``asyncio``, so :mod:`repro.analysis` can
name these types without loading the event-loop stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.events import EventKind, EventLog, EventRecorder
from ..sim.faults import fault_node, fault_tag, occurrences
from ..sim.trace import UtilizationTrace
from .config import LiveClusterConfig
from .transport import ChunkRecord, goodput_bytes_per_s, timeline_utilization


class LiveRunError(Exception):
    """A live run failed to launch, converge, or shut down cleanly."""


class LiveWorkerError(Exception):
    """Raised when a live worker cannot make progress."""


class LiveAggregatorError(Exception):
    """Raised when a live aggregator cannot make progress."""


def agreed_params(params: Dict[int, Dict[str, np.ndarray]],
                  workers: Sequence[int]) -> Dict[str, np.ndarray]:
    """The final parameters of ``workers``' replicas, which the
    synchronous data plane must have kept bit-identical.

    Finiteness is checked first: parameters that overflowed hold NaN,
    and NaN != NaN would report a training run that blew up (learning
    rate too high for the model) as a transport bug.
    """
    for wid in workers:
        for name, value in params[wid].items():
            if not np.all(np.isfinite(value)):
                raise LiveRunError(
                    f"run diverged numerically: worker {wid}'s {name!r} "
                    f"holds non-finite values (learning rate too high?) "
                    f"— replicas cannot be compared")
    first = workers[0]
    for wid in workers[1:]:
        for name, value in params[wid].items():
            if not np.array_equal(params[first][name], value):
                raise LiveRunError(
                    f"replica divergence: worker {wid} disagrees with "
                    f"worker {first} on {name!r} — the synchronous data "
                    f"plane must keep replicas bit-identical")
    return params[first]


@dataclass
class LiveRunResult:
    """Outcome of one live training run (cf. :class:`repro.sim.RunResult`)."""

    strategy: str
    config: LiveClusterConfig
    final_params: Dict[str, np.ndarray]
    iteration_times: Dict[int, np.ndarray]  # per worker, seconds
    timelines: Dict[int, List[ChunkRecord]] = field(default_factory=dict)
    heartbeat_acks: Dict[int, int] = field(default_factory=dict)
    #: Per-worker reliability/chaos counters (retransmits, acks, CRC
    #: failures, dropped/duplicated/corrupted frames, ...).
    transport_stats: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: Merged repro.obs event stream from every node (populated only
    #: when ``config.observe`` is set), timestamps rebased to t=0 and
    #: sorted (:func:`merge_event_rows`); validates against
    #: :data:`repro.obs.EVENT_SCHEMA`.
    events: EventLog = field(default_factory=lambda: EventLog("live", []))

    @property
    def mean_iteration_time(self) -> float:
        """Steady-state mean across workers (warmup iterations skipped)."""
        skip = self.config.warmup
        per_worker = [float(times[skip:].mean())
                      for times in self.iteration_times.values()]
        return float(np.mean(per_worker))

    @property
    def throughput(self) -> float:
        """Samples/s across the cluster (global batch per iteration)."""
        return self.config.batch_size / self.mean_iteration_time

    def goodput_bytes_per_s(self, worker: int = 0) -> float:
        return goodput_bytes_per_s(self.timelines.get(worker, []))

    def utilization(self, worker: int = 0) -> UtilizationTrace:
        """The worker's TX timeline in the simulator's trace schema."""
        return timeline_utilization(self.timelines.get(worker, []))

    def speedup_over(self, other: "LiveRunResult") -> float:
        return other.mean_iteration_time / self.mean_iteration_time


def _fault_events(cfg: LiveClusterConfig, epoch: float,
                  horizon_s: float) -> List[tuple]:
    """The driver's FAULT_ON/FAULT_OFF stream for a live run.

    Live fault windows are wall-clock intervals computed by every
    node from the shared plan + epoch, not discrete events, so the
    driver synthesizes the same records the simulator's injector emits —
    from the *same* :func:`repro.sim.faults.occurrences` expansion —
    keeping the cross-substrate event streams comparable.  Returns the
    records as rows (:meth:`repro.obs.EventRecorder.sink`).
    """
    if cfg.fault_plan is None or not cfg.fault_plan:
        return []
    recorder = EventRecorder("live")
    for occ in occurrences(cfg.fault_plan, max(horizon_s, 1e-6)):
        if occ.start <= horizon_s:
            recorder.emit(EventKind.FAULT_ON, node=fault_node(occ.spec),
                          ts=epoch + occ.start, detail=fault_tag(occ.spec))
        if occ.end is not None and occ.end <= horizon_s:
            recorder.emit(EventKind.FAULT_OFF, node=fault_node(occ.spec),
                          ts=epoch + occ.end, detail=fault_tag(occ.spec))
    return recorder.log().rows


#: A row's (ts, node, kind): the merged stream's sort key.
_merge_key = itemgetter(0, 1, 2)


def merge_event_rows(streams: Iterable[List[tuple]]
                     ) -> Tuple[EventLog, Optional[float]]:
    """One live run's event stream from its nodes' rows.

    Live processes record raw ``CLOCK_MONOTONIC`` times; the merged
    stream is rebased so its earliest event is at t=0 and sorted stably
    by ``(ts, node, kind)``.  Returns the stream and the time it was
    rebased by (None for no events), which the driver subtracts from the
    chunk timelines too so a merged trace export lines them up.
    """
    rows = [row for stream in streams for row in stream]
    if not rows:
        return EventLog("live", rows), None
    t0 = min(row[0] for row in rows)
    rows = [(row[0] - t0, *row[1:]) for row in rows]
    rows.sort(key=_merge_key)
    return EventLog("live", rows), t0
