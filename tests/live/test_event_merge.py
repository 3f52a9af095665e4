"""The live driver's event merge, held to the dict merge it replaced.

:func:`repro.live.result.merge_event_rows` joins the rows of every
node's recorder and the driver's fault rows, rebases them onto the
earliest event and sorts them stably by ``(ts, node, kind)``.  The
reference below is the merge the driver ran over schema dicts before:
concatenate, :func:`repro.obs.normalize_timestamps`, sort.
"""

from __future__ import annotations

from repro.live.config import LiveClusterConfig
from repro.live.result import _fault_events, merge_event_rows
from repro.obs import (EventKind, EventLog, EventRecorder,
                       normalize_timestamps, validate_events)

from ..scenarios import FAULT_PLANS

EPOCH = 5_000.25  # a raw CLOCK_MONOTONIC reading


def _dict_merge(streams):
    events = [record for stream in streams for record in stream]
    t0 = min(float(e["ts"]) for e in events)
    events = normalize_timestamps(events)
    events.sort(key=lambda e: (e["ts"], e["node"], e["kind"]))
    return events, t0


def _typed(records):
    return [[(name, type(value), value) for name, value in r.items()]
            for r in records]


def _node_recorders():
    """Workers and a shard recording at the same instants: ties on
    (ts, node, kind) that only emission order breaks."""
    recorders = {name: EventRecorder("live")
                 for name in ("worker1", "worker0", "server0")}
    for step in range(4):
        ts = EPOCH + 0.001 * (step // 2)  # each instant twice
        for name, rec in recorders.items():
            for key in (7, 3, 5):
                rec.emit(EventKind.SLICE_ENQUEUED, name, ts=ts, key=key,
                         iteration=step, priority=key, nbytes=400)
                rec.emit(EventKind.SLICE_SENT, name, ts=ts, key=key,
                         iteration=step, queue_s=0.0005, wire_s=0.0001)
            if name.startswith("worker"):
                rec.emit(EventKind.FORWARD_GATE_OPEN, name, ts=ts,
                         layer=step % 2, iteration=step)
    return list(recorders.values())


def test_row_merge_equals_the_dict_merge():
    cfg = LiveClusterConfig(fault_plan=FAULT_PLANS["combined"])
    faults = _fault_events(cfg, EPOCH, 0.2)
    assert {row[2] for row in faults} == {"fault_on", "fault_off"}
    recorders = _node_recorders()
    merged, t0 = merge_event_rows(
        [rec.log().rows for rec in recorders] + [faults])
    want, want_t0 = _dict_merge(
        [rec.to_dicts() for rec in recorders]
        + [list(EventLog("live", faults))])
    assert t0 == want_t0 == EPOCH
    assert merged.source == "live"
    assert merged == want
    assert _typed(merged) == _typed(want)
    assert validate_events(merged) == len(want)


def test_no_events_merge_to_an_empty_log():
    merged, t0 = merge_event_rows([[], []])
    assert t0 is None
    assert merged == [] and merged.source == "live"
