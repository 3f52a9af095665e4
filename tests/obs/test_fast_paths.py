"""The obs fast paths, each held to the slow expression it stands for.

* the Chrome exporter's instant encoder against
  ``json.dumps(_instant(record))``, the spec;
* :func:`validate_events`' inline checks against :func:`validate_event`;
* both readers of an :class:`EventLog`'s rows against the same readers
  over ``list(log)``, its records as dicts;
* the simulator's row emitters against :meth:`EventRecorder.emit`.

The first three are derandomized properties over drawn records (or
rows): zeros and -1s, huge ints, NaN and infinities, bools, numpy
scalars, and strings with quotes, backslashes, control characters and
non-ASCII text.
"""

from __future__ import annotations

import json
import math
import tempfile
from collections import OrderedDict, defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models import get_model, toy_model
from repro.obs import (
    EVENT_SCHEMA,
    SCHEMA_VERSION,
    EventKind,
    EventLog,
    EventRecorder,
    SchemaError,
    build_chrome_events,
    export_chrome_trace,
    sim_session,
    validate_event,
    validate_events,
)
from repro.obs.events import VALID_SOURCES
from repro.obs.exporters import _encode_instants, _instant
from repro.sim import ClusterConfig, simulate
from repro.strategies import p3

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

FIELDS = tuple(EVENT_SCHEMA)
KINDS = [kind.value for kind in EventKind]

texts = st.text(alphabet=st.characters(codec="utf-8"), max_size=12) | \
    st.sampled_from(["", "worker0", "server3", "agg1", 'q"uote',
                     "back\\slash", "tab\there\n", "\x00\x1f", "é", "😀",
                     "contribs=4", "%s %d"])
ints = st.sampled_from([-1, 0, 1, -2, 10 ** 30, -10 ** 400]) \
    | st.integers(-2 ** 70, 2 ** 70)
floats = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                          1e-7, 1e16, 1e300, 1.5]) \
    | st.floats(allow_nan=True, allow_infinity=True)
numpy_scalars = st.sampled_from([np.float64(0.25), np.float64(0.0),
                                 np.int64(3), np.int64(-1), np.float32(2.5)])
odd = st.booleans() | numpy_scalars | st.none()
# Mostly the schema's own types, sometimes anything.
values = {
    "ts": floats | ints | odd,
    "source": st.sampled_from(["dream", "live", "sim", ""]) | odd,
    "node": texts | odd,
    "kind": st.sampled_from(["teleport"] + KINDS) | st.sampled_from(
        list(EventKind)) | texts,
    "key": ints | floats | odd,
    "iteration": ints | odd,
    "priority": ints | odd,
    "layer": ints | floats | odd,
    "nbytes": ints | odd,
    "queue_s": floats | ints | odd,
    "wire_s": floats | ints | odd,
    "detail": texts | ints | odd,
}


def _plain(**overrides):
    record = {"ts": 1.5, "source": "sim", "node": "worker0",
              "kind": "slice_sent", "key": 3, "iteration": 0,
              "priority": 2, "layer": 1, "nbytes": 100, "queue_s": 0.5,
              "wire_s": 0.25, "detail": "push"}
    record.update(overrides)
    return record


@st.composite
def records(draw):
    """A record with some fields redrawn, sometimes one missing or one
    extra, sometimes not a plain dict."""
    record = _plain()
    for name in draw(st.lists(st.sampled_from(FIELDS), min_size=1,
                              max_size=6)):
        record[name] = draw(values[name])
    if draw(st.integers(0, 9)) == 0:
        del record[draw(st.sampled_from(FIELDS))]
    if draw(st.integers(0, 19)) == 0:
        record["extra"] = 1
    wrapper = draw(st.sampled_from([dict] * 8 + [OrderedDict, "defaultdict"]))
    if wrapper == "defaultdict":
        return defaultdict(int, record)
    return wrapper(record)


def _outcome(fn, record):
    """What ``fn(record)`` gives: its value, or its exception's type."""
    try:
        return fn(record)
    except Exception as exc:  # noqa: BLE001 - the type is the verdict
        return type(exc)


def _spec_text(record):
    return json.dumps(_instant(record))


def _fast_text(record):
    return next(_encode_instants([record]))


@SETTINGS
@given(st.lists(records(), max_size=12))
def test_encoder_matches_the_spec(batch):
    # One generator over the whole stream, so its memos are exercised
    # across records (0.0 and -0.0, repeated floats, kinds and nodes).
    ok = [r for r in batch if isinstance(_outcome(_spec_text, r), str)]
    assert list(_encode_instants(ok)) == [_spec_text(r) for r in ok]
    for record in batch:
        assert _outcome(_fast_text, record) == _outcome(_spec_text, record)


def test_encoder_keeps_float_text_apart_from_equal_numbers():
    """Values that compare equal but print differently stay apart."""
    batch = [_plain(ts=0.0), _plain(ts=-0.0), _plain(ts=0), _plain(ts=2),
             _plain(ts=2.0), _plain(wire_s=3), _plain(wire_s=3.0),
             _plain(queue_s=-0.0), _plain(key=1), _plain(key=True)]
    assert list(_encode_instants(batch)) == [_spec_text(r) for r in batch]


def _verdict(fn, record):
    try:
        fn(record)
    except Exception as exc:  # noqa: BLE001 - type and message compared
        return type(exc), str(exc)
    return None


@SETTINGS
@given(records())
@example(_plain(ts=math.inf))
@example(_plain(ts=math.nan))
@example(_plain(queue_s=-math.inf))
@example(_plain(wire_s=math.nan))
@example(_plain(source="dream"))
@example(_plain(key=-1))
def test_fast_validator_agrees_with_validate_event(record):
    want = _verdict(validate_event, record)
    assert _verdict(lambda r: validate_events([_plain(), r]), record) == want


def test_validate_events_counts_what_it_checked():
    good = [_plain(ts=float(i), key=i) for i in range(5)]
    assert validate_events(good) == 5
    assert validate_events(iter(good)) == 5
    assert validate_events([]) == 0


ROW_FIELDS = tuple(name for name in FIELDS if name != "source")


def _row(**overrides):
    """A row as :meth:`EventRecorder.sink` takes it."""
    record = _plain(**overrides)
    return tuple(record[name] for name in ROW_FIELDS)


@st.composite
def rows(draw):
    """A row with some fields redrawn: what an emitter that builds its
    rows unchecked may append."""
    row = dict(zip(ROW_FIELDS, _row()))
    for name in draw(st.lists(st.sampled_from(ROW_FIELDS), max_size=4)):
        row[name] = draw(values[name])
    return tuple(row[name] for name in ROW_FIELDS)


def _count_or_error(stream):
    try:
        return validate_events(stream)
    except SchemaError as exc:
        return str(exc)


def _export_bytes(path, stream):
    try:
        export_chrome_trace(path, events=stream)
    except Exception as exc:  # noqa: BLE001 - the type is the verdict
        return type(exc)
    with open(path, "rb") as f:
        return f.read()


def _spec_document(stream):
    try:
        return json.dumps({"traceEvents": build_chrome_events(events=stream),
                           "displayTimeUnit": "ms",
                           "otherData": {"schema": SCHEMA_VERSION}}).encode()
    except Exception as exc:  # noqa: BLE001 - the type is the verdict
        return type(exc)


@SETTINGS
@given(st.sampled_from(VALID_SOURCES), st.lists(rows(), max_size=8))
@example("sim", [_row(key=True)])
@example("sim", [_row(ts=np.float64(0.5))])
@example("live", [_row(), _row(queue_s=math.nan), _row(queue_s=math.inf)])
@example("sim", [_row(ts=-1.0)])
@example("sim", [_row(kind="teleport")])
@example("live", [_row(kind="slice_sent", key=-1)])
@example("sim", [_row(detail=7)])
def test_reading_rows_matches_reading_their_dicts(source, batch):
    """An :class:`EventLog` read in place gives what its records give as
    dicts: the validator's count or message, the exporter's bytes, and
    those bytes are the ``json.dumps`` document."""
    recorder = EventRecorder(source)
    append = recorder.sink()
    for row in batch:
        append(row)
    log = recorder.log()
    records = list(log)
    assert _count_or_error(log) == _count_or_error(records)
    with tempfile.TemporaryDirectory() as scratch:
        path = f"{scratch}/t.json"
        got = _export_bytes(path, log)
        assert got == _export_bytes(path, records) == _spec_document(records)


def test_an_event_log_is_a_read_only_sequence_of_records():
    log = EventLog("live", [_row(key=1), _row(key=2), _row(key=3)])
    want = [_plain(key=k, source="live") for k in (1, 2, 3)]
    assert log == want and list(log) == want and len(log) == 3
    assert log[-1] == want[-1] and log[1:] == want[1:]
    assert isinstance(log[1:], EventLog)
    log[0]["key"] = 99  # a fresh dict: nothing recorded changes
    assert log[0]["key"] == 1
    assert log != want[:2] and log != EventLog("sim", log.rows)
    # A log with a source the schema refuses: every row is doubted, and
    # the verdict is validate_event's.
    with pytest.raises(SchemaError, match="source must be one of"):
        validate_events(EventLog("dream", log.rows))


def _typed(dicts):
    return [[(name, type(value), value) for name, value in d.items()]
            for d in dicts]


@pytest.mark.parametrize("config", [
    dict(n_workers=2),
    dict(n_workers=4, placement="two_tier", agg_group_size=2),
])
def test_sim_rows_are_what_emit_would_record(config):
    """Every row the simulator appends through ``sink()`` equals what
    ``emit`` records for the same fields, for each of the six kinds the
    simulator emits; and the two entry points build the same dicts."""
    sess = sim_session()
    simulate(get_model("resnet50"), p3(),
             ClusterConfig(bandwidth_gbps=1.0, seed=0, **config),
             iterations=1, warmup=0, obs=sess)
    got = sess.events()
    assert {e["kind"] for e in got} == {
        "slice_enqueued", "slice_preempted", "slice_sent",
        "slice_applied", "round_applied", "forward_gate_open"}
    via_emit = EventRecorder("sim")
    via_sink = EventRecorder("sim")
    append = via_sink.sink()
    for e in got:
        fields = {k: v for k, v in e.items()
                  if k not in ("source", "kind", "node")}
        via_emit.emit(EventKind(e["kind"]), e["node"], **fields)
        append(tuple(v for k, v in e.items() if k != "source"))
    assert _typed(via_emit.to_dicts()) == _typed(got)
    assert _typed(via_sink.to_dicts()) == _typed(got)
    assert via_sink.counts_by_kind() == via_emit.counts_by_kind()
    assert len(via_sink) == len(via_emit) == len(got)


def test_export_with_spans_and_instants_is_json_dumps(tmp_path):
    """Spans (C encoder) then instants (the fast encoder), joined into
    the one document ``json.dumps`` writes."""
    sess = sim_session()
    result = simulate(toy_model(), p3(),
                      ClusterConfig(n_workers=2, bandwidth_gbps=1.0, seed=0),
                      iterations=2, warmup=0, trace_utilization=True,
                      obs=sess)
    events = list(sess.events()) + [_plain(detail='odd "text"\n'),
                                    _plain(ts=np.float64(2.0))]
    streams = dict(iteration_records=result.iterations.records,
                   transmissions=result.utilization.records)
    for kwargs in (streams, dict(events=events),
                   dict(streams, events=events)):
        path = export_chrome_trace(tmp_path / "t.json", **kwargs)
        assert path.read_text() == json.dumps({
            "traceEvents": build_chrome_events(**kwargs),
            "displayTimeUnit": "ms",
            "otherData": {"schema": SCHEMA_VERSION},
        })
