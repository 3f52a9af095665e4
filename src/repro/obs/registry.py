"""Metrics registry: counters, gauges, streaming histograms (repro.obs).

Instrumentation points throughout the simulator and the live data plane
record into these instruments.  Two properties matter more than
features:

* **near-zero overhead when off** — an unobserved run has no session
  (``obs is None``), and the hot paths guard emission behind that one
  check;
* **observation-only when on** — instruments only accumulate
  Python numbers; they never schedule events, sleep, or touch any RNG,
  so enabling metrics cannot perturb a run (the bit-identity guarantee
  tested in ``tests/obs/test_observation_only.py``).

Histograms are streaming: a fixed set of log-spaced buckets plus exact
count/sum/min/max, giving p50/p95/p99 estimates in O(1) memory no
matter how many samples land — the shape needed for per-slice queueing
delays, where a long run records one sample per slice per iteration.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .events import EventLog

#: Default histogram bucket range: 1 microsecond .. 1000 seconds, which
#: covers every latency this repo measures (simulated queueing delays,
#: live round-trip times) with ~7% relative bucket width.
DEFAULT_BUCKET_LO = 1e-6
DEFAULT_BUCKET_HI = 1e3
DEFAULT_BUCKETS_PER_DECADE = 16


class Counter:
    """A monotonically increasing count (messages sent, preemptions...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> Dict[str, float]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins value (queue depth, link rate, clock)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, float]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming histogram with log-spaced buckets and exact moments.

    ``observe(v)`` is O(1); ``percentile(q)`` interpolates within the
    bucket containing the q-th sample, which bounds the relative error
    by the bucket width (~7% at the default resolution) — plenty for
    p50/p95/p99 reporting.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_lo", "_hi",
                 "_per_decade", "_buckets", "_underflow", "_lock")

    def __init__(self, name: str, lo: float = DEFAULT_BUCKET_LO,
                 hi: float = DEFAULT_BUCKET_HI,
                 buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE) -> None:
        if lo <= 0 or hi <= lo:
            raise ValueError("need 0 < lo < hi")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lo = lo
        self._hi = hi
        self._per_decade = buckets_per_decade
        n = int(math.ceil(math.log10(hi / lo) * buckets_per_decade)) + 1
        self._buckets = [0] * n
        self._underflow = 0  # samples <= lo (including zeros/negatives)
        self._lock = threading.Lock()

    def _index(self, value: float) -> int:
        idx = int(math.log10(value / self._lo) * self._per_decade)
        return min(idx, len(self._buckets) - 1)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if value <= self._lo:
                self._underflow += 1
            else:
                # _index, inlined: this runs once per observed slice.
                buckets = self._buckets
                idx = int(math.log10(value / self._lo) * self._per_decade)
                last = len(buckets) - 1
                buckets[idx if idx < last else last] += 1

    def observe_many(self, values) -> None:
        """Observe an iterable of samples (one lock acquisition total).

        The SLO reporters (:mod:`repro.tenancy`) fold whole per-job
        iteration-time arrays into a histogram at collection time; doing
        it sample-by-sample would take the lock O(n) times for no
        benefit.
        """
        with self._lock:
            for value in values:
                value = float(value)
                self.count += 1
                self.total += value
                if value < self.min:
                    self.min = value
                if value > self.max:
                    self.max = value
                if value <= self._lo:
                    self._underflow += 1
                else:
                    self._buckets[self._index(value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (q in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = q / 100.0 * self.count
            seen = self._underflow
            if rank <= seen:
                return self.min if self.min != math.inf else self._lo
            for i, n in enumerate(self._buckets):
                if n == 0:
                    continue
                if seen + n >= rank:
                    lo_edge = self._lo * 10 ** (i / self._per_decade)
                    hi_edge = self._lo * 10 ** ((i + 1) / self._per_decade)
                    frac = (rank - seen) / n
                    est = lo_edge + frac * (hi_edge - lo_edge)
                    # Never report outside the observed range.
                    return min(max(est, self.min), self.max)
                seen += n
            return self.max

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            if self.count == 0:
                return {"type": "histogram", "count": 0, "sum": 0.0,
                        "mean": 0.0, "min": 0.0, "max": 0.0,
                        "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Names instruments and serializes their state.

    ``counter``/``gauge``/``histogram`` create on first use and return
    the same instrument thereafter, so instrumentation sites never need
    set-up code.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, factory):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = factory(name)
                self._instruments[name] = inst
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, lo: float = DEFAULT_BUCKET_LO,
                  hi: float = DEFAULT_BUCKET_HI) -> Histogram:
        return self._get(name, lambda n: Histogram(n, lo, hi))

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """All instruments' state, ready for JSON export."""
        with self._lock:
            items: List[Tuple[str, object]] = sorted(self._instruments.items())
        return {name: inst.snapshot() for name, inst in items}


class ObsSession:
    """One run's observability bundle: a registry plus an event recorder.

    ``source`` tags every event as "sim" or "live" so merged streams
    stay distinguishable.  The session is what :func:`repro.sim.simulate`
    and the live driver accept, and what the exporters consume.
    """

    def __init__(self, source: str, clock=None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        from .events import EventRecorder  # local: keep module load light
        self.source = source
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = EventRecorder(source, clock=clock)

    def events(self) -> EventLog:
        """The recorded stream: an :class:`~repro.obs.events.EventLog`,
        read-only, its dicts built as they are read."""
        return self.recorder.log()

    def metrics(self) -> Dict[str, Dict[str, float]]:
        return self.registry.snapshot()


def sim_session(clock=None) -> ObsSession:
    """An :class:`ObsSession` for a simulator run."""
    return ObsSession("sim", clock=clock)


def live_session(clock=None) -> ObsSession:
    """An :class:`ObsSession` for a live (socket) run."""
    return ObsSession("live", clock=clock)
