"""Unit tests for the shared event-record schema (repro.obs.events)."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import pytest

from repro.obs import (
    EventKind,
    EventRecorder,
    SchemaError,
    kinds_per_slice,
    normalize_timestamps,
    validate_event,
    validate_events,
)


def _record(**overrides):
    rec = EventRecorder("sim")
    rec.emit(EventKind.SLICE_SENT, node="worker0", ts=1.0, key=3,
             iteration=0, priority=2, nbytes=100, queue_s=0.5, wire_s=0.1)
    d = rec.to_dicts()[0]
    d.update(overrides)
    return d


def test_recorder_round_trip_validates():
    assert validate_events([_record()]) == 1


@dataclass(frozen=True)
class ParentObsEvent:
    """The record class the recorder stored before it kept rows; here
    only as the reference ``to_dicts()`` must keep matching."""

    ts: float
    source: str
    node: str
    kind: str
    key: int = -1
    iteration: int = -1
    priority: int = 0
    layer: int = -1
    nbytes: int = 0
    queue_s: float = 0.0
    wire_s: float = 0.0
    detail: str = ""


@pytest.mark.parametrize("kind", list(EventKind))
def test_to_dicts_matches_asdict_of_the_parent_record(kind):
    fields = dict(key=7, iteration=2, priority=3, layer=1, nbytes=4096,
                  queue_s=0.25, wire_s=0.125, detail="overtaken_by_key=9")
    rec = EventRecorder("sim")
    rec.emit(kind, node="server1", ts=3, **fields)       # int ts -> float
    rec.emit(kind.value, node="worker0", ts=4.5)         # all defaults
    want = [asdict(ParentObsEvent(ts=3.0, source="sim", node="server1",
                                  kind=kind.value, **fields)),
            asdict(ParentObsEvent(ts=4.5, source="sim", node="worker0",
                                  kind=kind.value))]
    got = rec.to_dicts()
    assert [list(d.items()) for d in got] == [list(d.items()) for d in want]
    assert all(type(d["kind"]) is str and type(d["ts"]) is float
               for d in got)
    with pytest.raises(ValueError, match="not a valid EventKind"):
        rec.emit("teleport", node="worker0", ts=0.0)


def test_recorder_needs_clock_or_explicit_ts():
    rec = EventRecorder("live", clock=lambda: 7.0)
    rec.emit(EventKind.FORWARD_GATE_OPEN, node="worker1", layer=2)
    assert rec.to_dicts()[0]["ts"] == 7.0
    with pytest.raises(ValueError):
        EventRecorder("sim").emit(EventKind.FORWARD_GATE_OPEN, node="w")
    with pytest.raises(ValueError):
        EventRecorder("martian")


def test_counts_by_kind_and_len():
    rec = EventRecorder("sim")
    for key in range(3):
        rec.emit(EventKind.SLICE_ENQUEUED, node="worker0", ts=float(key),
                 key=key)
    rec.emit(EventKind.ROUND_APPLIED, node="server0", ts=9.0, key=0)
    assert len(rec) == 4
    assert rec.counts_by_kind() == {"slice_enqueued": 3, "round_applied": 1}


@pytest.mark.parametrize("mutation, message", [
    (lambda d: d.pop("ts"), "missing required"),
    (lambda d: d.update(ts=-1.0), "negative timestamp"),
    (lambda d: d.update(kind="teleport"), "unknown event kind"),
    (lambda d: d.update(source="dream"), "source must be one of"),
    (lambda d: d.update(key="three"), "has type"),
    (lambda d: d.update(key=True), "has type"),
    (lambda d: d.update(extra=1), "unknown fields"),
    (lambda d: d.update(key=-1), "slice event without a key"),
    (lambda d: d.update(ts=math.nan), "'ts' is not finite"),
    (lambda d: d.update(ts=math.inf), "'ts' is not finite"),
    (lambda d: d.update(queue_s=math.inf), "'queue_s' is not finite"),
    (lambda d: d.update(wire_s=-math.inf), "'wire_s' is not finite"),
    (lambda d: d.update(wire_s=math.nan), "'wire_s' is not finite"),
])
def test_validator_rejects_malformed_records(mutation, message):
    d = _record()
    mutation(d)
    with pytest.raises(SchemaError, match=message):
        validate_event(d)
    with pytest.raises(SchemaError, match=message):
        validate_events([_record(), d])


def test_validator_accepts_finite_extremes():
    """Huge ints are finite (the check never converts them to float)."""
    assert validate_events([_record(ts=10 ** 400, queue_s=10 ** 400,
                                    wire_s=-1e308)]) == 1


def test_kinds_per_slice_groups_by_key():
    rec = EventRecorder("sim")
    rec.emit(EventKind.SLICE_ENQUEUED, node="worker0", ts=0.0, key=1)
    rec.emit(EventKind.SLICE_SENT, node="worker0", ts=1.0, key=1)
    rec.emit(EventKind.SLICE_APPLIED, node="server0", ts=2.0, key=1)
    rec.emit(EventKind.FORWARD_GATE_OPEN, node="worker0", ts=3.0, layer=0)
    by_key = kinds_per_slice(rec.to_dicts())
    assert by_key == {1: {"slice_enqueued", "slice_sent", "slice_applied"}}


def test_normalize_timestamps_rebases_without_reordering():
    rec = EventRecorder("live", clock=None)
    rec.emit(EventKind.SLICE_ENQUEUED, node="worker0", ts=100.5, key=0)
    rec.emit(EventKind.SLICE_SENT, node="worker0", ts=100.25, key=0)
    out = normalize_timestamps(rec.to_dicts())
    assert [e["ts"] for e in out] == [0.25, 0.0]
    assert normalize_timestamps([]) == []
    assert validate_events(out) == 2  # rebased records stay valid
