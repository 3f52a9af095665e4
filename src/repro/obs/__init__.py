"""Unified observability layer for simulated and live runs.

:mod:`repro.sim` predicts where a run's time goes; :mod:`repro.live`
measures it on real sockets.  This package is the shared vocabulary
between them: one metrics registry (:mod:`repro.obs.registry`), one
event-record schema (:mod:`repro.obs.events`), and one set of exporters
(:mod:`repro.obs.exporters`) producing Chrome traces, JSON metric
summaries, and ASCII utilization timelines from either substrate.

Attaching an :class:`ObsSession` is observation-only by contract: a
monitored run is bit-identical (timestamps, final parameters, event
counts) to an unmonitored one.  See ``docs/observability.md``.
"""

from .events import (
    EVENT_SCHEMA,
    EventKind,
    EventLog,
    EventRecorder,
    SLICE_KINDS,
    SchemaError,
    kinds_per_slice,
    normalize_timestamps,
    validate_event,
    validate_events,
)
from .exporters import (
    SCHEMA_VERSION,
    ascii_timeline,
    build_chrome_events,
    canonicalize_trace,
    export_chrome_trace,
    export_metrics_summary,
    metrics_summary,
    node_pid,
    session_from_events,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObsSession,
    live_session,
    sim_session,
)

__all__ = [
    "Counter",
    "EVENT_SCHEMA",
    "EventKind",
    "EventLog",
    "EventRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsSession",
    "SCHEMA_VERSION",
    "SLICE_KINDS",
    "SchemaError",
    "ascii_timeline",
    "build_chrome_events",
    "canonicalize_trace",
    "export_chrome_trace",
    "export_metrics_summary",
    "kinds_per_slice",
    "live_session",
    "metrics_summary",
    "node_pid",
    "normalize_timestamps",
    "session_from_events",
    "sim_session",
    "validate_event",
    "validate_events",
]
