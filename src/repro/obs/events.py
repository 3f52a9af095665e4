"""Shared event-record schema for simulated and live runs (repro.obs).

The paper's argument is a scheduling argument: *when* each gradient
slice moves, waits, and lands decides the iteration time (Figures 4 and
6-9).  This module pins down one vocabulary for those moments so the
discrete-event simulator (:mod:`repro.sim`) and the live socket data
plane (:mod:`repro.live`) describe a run with the *same* records and the
same exporters can render either one.

Event kinds
-----------
``slice_enqueued``     a gradient/parameter slice entered a send queue
``slice_preempted``    a queued or in-flight slice was overtaken by a
                       more urgent one (P3's scheduling in action)
``slice_sent``         the slice's last byte left the sender
``slice_applied``      a PS shard consumed the slice in an update job
``forward_gate_open``  a worker's forward layer unblocked (its round's
                       parameters all arrived)
``round_applied``      a PS shard finished one full aggregation round
                       for a key
``fault_on``           an injected fault occurrence became active
                       (emitted by the sim's FaultInjector and the live
                       driver from the same FaultPlan schedule)
``fault_off``          a fault occurrence lifted

Every record is a flat, JSON-serializable dict with the fields of
:data:`EVENT_SCHEMA`; :func:`validate_event` is the executable schema
both sides must satisfy (see ``tests/obs/test_schema_conformance.py``).
A recorder keeps each event as one row tuple; an :class:`EventLog`
reads a stream from those rows and builds a record only when one is
asked for, so a recorded stream is held once.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from enum import Enum
from itertools import repeat
from operator import eq, itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set


class EventKind(str, Enum):
    """The shared vocabulary of observable moments."""

    SLICE_ENQUEUED = "slice_enqueued"
    SLICE_PREEMPTED = "slice_preempted"
    SLICE_SENT = "slice_sent"
    SLICE_APPLIED = "slice_applied"
    FORWARD_GATE_OPEN = "forward_gate_open"
    ROUND_APPLIED = "round_applied"
    FAULT_ON = "fault_on"
    FAULT_OFF = "fault_off"


#: Event kinds that describe one synchronization slice (carry a real key).
SLICE_KINDS: Set[str] = {
    EventKind.SLICE_ENQUEUED.value,
    EventKind.SLICE_PREEMPTED.value,
    EventKind.SLICE_SENT.value,
    EventKind.SLICE_APPLIED.value,
    EventKind.ROUND_APPLIED.value,
}


#: Executable schema: field -> (accepted types, required), in record
#: order.  ``ts`` is seconds on the run's own clock (simulated seconds
#: for the simulator, normalized monotonic seconds for live processes);
#: ``source`` is "sim" | "live"; ``node`` is "worker0", "server1", ...;
#: ``key``/``iteration``/``layer`` are -1 when not known; lower
#: ``priority`` is more urgent.  ``queue_s``/``wire_s`` are filled on
#: ``slice_sent``: time the slice spent waiting (not on the wire) and
#: transmitting — the raw material of the per-phase calibration
#: breakdown.  ``ts``, ``queue_s`` and ``wire_s`` are finite.  What an
#: :class:`EventRecorder` returns always conforms; the validator exists
#: so *foreign* streams (JSON re-loaded from an exporter, another
#: process's records) can be checked against the same contract.
EVENT_SCHEMA: Dict[str, tuple] = {
    "ts": ((int, float), True),
    "source": ((str,), True),
    "node": ((str,), True),
    "kind": ((str,), True),
    "key": ((int,), True),
    "iteration": ((int,), True),
    "priority": ((int,), True),
    "layer": ((int,), True),
    "nbytes": ((int,), True),
    "queue_s": ((int, float), True),
    "wire_s": ((int, float), True),
    "detail": ((str,), True),
}

VALID_SOURCES = ("sim", "live")
#: Numeric fields that must be finite (an int always is).
_FINITE_FIELDS = ("ts", "queue_s", "wire_s")
VALID_KINDS: Set[str] = {k.value for k in EventKind}
#: ``EventKind`` member or its value -> the plain ``str`` a record holds
#: (a member hashes and compares as its value).
_KIND_VALUE: Dict[str, str] = {value: value for value in VALID_KINDS}


class SchemaError(ValueError):
    """An event record does not conform to the shared schema."""


def validate_event(record: Dict[str, object]) -> None:
    """Raise :class:`SchemaError` unless ``record`` conforms."""
    for name, (types, required) in EVENT_SCHEMA.items():
        if name not in record:
            if required:
                raise SchemaError(f"event missing required field {name!r}: "
                                  f"{record}")
            continue
        value = record[name]
        if not isinstance(value, types) or isinstance(value, bool):
            raise SchemaError(
                f"field {name!r} has type {type(value).__name__}, "
                f"expected one of {[t.__name__ for t in types]}")
    unknown = set(record) - set(EVENT_SCHEMA)
    if unknown:
        raise SchemaError(f"event carries unknown fields {sorted(unknown)}")
    if record["source"] not in VALID_SOURCES:
        raise SchemaError(f"source must be one of {VALID_SOURCES}, "
                          f"got {record['source']!r}")
    if record["kind"] not in VALID_KINDS:
        raise SchemaError(f"unknown event kind {record['kind']!r}")
    # NaN passes every comparison's "not less than" test, and json
    # writes NaN and infinities as bare words no trace viewer parses.
    for name in _FINITE_FIELDS:
        value = record[name]
        if isinstance(value, float) and not math.isfinite(value):
            raise SchemaError(f"field {name!r} is not finite: {value}")
    if record["ts"] < 0:
        raise SchemaError(f"negative timestamp {record['ts']}")
    if record["kind"] in SLICE_KINDS and record["key"] < 0:
        raise SchemaError(f"slice event without a key: {record}")


#: A record's fields in row order: the schema's, less ``source``.
_read_row = itemgetter(*(name for name in EVENT_SCHEMA if name != "source"))
_read_kind = itemgetter(2)  # of a row
_N_FIELDS = len(EVENT_SCHEMA)
_NUMBER = (int, float)
_INF = math.inf
#: Stands for "the record is the row's own dict" in :func:`_rows`.
_FROM_ROW = object()


def _record(source: str, row: tuple) -> Dict[str, object]:
    """The schema dict of one row: the only place a record is built."""
    (ts, node, kind, key, iteration, priority, layer, nbytes, queue_s,
     wire_s, detail) = row
    return {"ts": ts, "source": source, "node": node, "kind": kind,
            "key": key, "iteration": iteration, "priority": priority,
            "layer": layer, "nbytes": nbytes, "queue_s": queue_s,
            "wire_s": wire_s, "detail": detail}


class EventLog(Sequence):
    """A recorded event stream, read from its recorder's rows.

    ``rows`` is a snapshot of the recorder's row list (see
    :meth:`EventRecorder.sink` for a row's fields) and ``source`` the
    ``source`` every record carries.  The log holds no record: indexing
    and iteration build a fresh schema dict per item, so JSON, ``dict``
    readers and :func:`validate_event` see plain records while a stream
    costs one pointer per event on top of the rows it shares with the
    recorder.  Writing into a yielded dict changes nothing recorded (and
    the next read builds the record again); take ``list(log)`` for
    records to edit.  A slice is a log; ``==`` compares the records,
    against another log or a list of dicts.

    The readers in :mod:`repro.obs` (the Chrome exporter,
    :func:`validate_events`, :func:`~repro.obs.session_from_events`)
    read ``rows`` in place.
    """

    __slots__ = ("source", "rows")

    def __init__(self, source: str, rows: List[tuple]) -> None:
        self.source = source
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventLog(self.source, self.rows[index])
        return _record(self.source, self.rows[index])

    def __iter__(self) -> Iterator[Dict[str, object]]:
        source = self.source
        for row in self.rows:
            yield _record(source, row)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventLog):
            return self.source == other.source and self.rows == other.rows
        if isinstance(other, list):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"EventLog({self.source!r}, {len(self)} events)"


def _rows(records: Iterable[Dict[str, object]]) -> Iterator[tuple]:
    """Each record of a stream as ``(source, row, record)``.

    An :class:`EventLog`'s rows come as they are, with its source and
    ``_FROM_ROW`` for the record; a plain dict holding the row's fields
    is read into its row at the door (``source`` None if it has none);
    anything else comes with ``row`` None.  Readers check rows inline and
    take a doubtful one's record (:func:`_record_of`) to the spec.
    """
    if isinstance(records, EventLog):
        return zip(repeat(records.source), records.rows, repeat(_FROM_ROW))
    return _dict_rows(records)


def _dict_rows(records: Iterable[Dict[str, object]]) -> Iterator[tuple]:
    for record in records:
        # A dict subclass could answer a read by inserting (defaultdict).
        if type(record) is dict:
            try:
                yield record.get("source"), _read_row(record), record
                continue
            except KeyError:
                pass
        yield None, None, record


def _record_of(source, row, record):
    """The record a :func:`_rows` triple stands for."""
    return _record(source, row) if record is _FROM_ROW else record


def validate_events(records: Iterable[Dict[str, object]]) -> int:
    """Validate a whole stream; return how many records were checked.

    An :class:`EventLog` is checked row by row; a plain dict holding the
    schema's fields is read into its row and checked the same way.  Each field must hold exactly the schema's types (no
    subclass: ``bool`` is an ``int`` the schema refuses).  Any record
    the inline checks doubt, and anything that is not such a dict, goes
    to :func:`validate_event`, so the verdict and the message are always
    that function's.
    """
    n = 0
    for source, row, record in _rows(records):
        ts = None
        if row is not None and (record is _FROM_ROW
                                or len(record) == _N_FIELDS):
            (ts, node, kind, key, iteration, priority, layer, nbytes,
             queue_s, wire_s, detail) = row
        # (A None ts stops the test before any stale field is read.)
        if not (type(ts) in _NUMBER and type(queue_s) in _NUMBER
                and type(wire_s) in _NUMBER
                and type(source) is type(node) is type(kind)
                is type(detail) is str
                and type(key) is type(iteration) is type(priority)
                is type(layer) is type(nbytes) is int
                and source in VALID_SOURCES and kind in VALID_KINDS
                and 0 <= ts < _INF and -_INF < queue_s < _INF
                and -_INF < wire_s < _INF
                and (key >= 0 or kind not in SLICE_KINDS)):
            validate_event(_record_of(source, row, record))
        n += 1
    return n


class EventRecorder:
    """Append-only, thread-safe collector of event records.

    The recorder never schedules work, never sleeps, and never consumes
    randomness: attaching one to a run is observation-only by
    construction (the guarantee ``tests/obs/test_observation_only.py``
    enforces).  Recording costs one tuple; :meth:`log` reads the rows
    as an :class:`EventLog`, which builds the dicts the schema describes
    only as they are read.

    It needs no lock: its only state is one list, and every access is a
    single ``list`` operation (``append``, ``len``, a slice copy) that
    CPython runs without releasing the interpreter lock, so a reader
    never sees a half-written row and no two writers lose one.
    """

    def __init__(self, source: str,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if source not in VALID_SOURCES:
            raise ValueError(f"source must be one of {VALID_SOURCES}")
        self.source = source
        self._clock = clock
        # One row per event: the schema's fields in order, less ``source``.
        self._rows: List[tuple] = []

    def sink(self) -> Callable[[tuple], None]:
        """The raw append of this recorder's rows, for hot emitters.

        A row is the schema's fields in order, less ``source``: ``(ts,
        node, kind, key, iteration, priority, layer, nbytes, queue_s,
        wire_s, detail)``, with ``ts`` a float and ``kind`` the plain
        ``str`` value of an :class:`EventKind`.  The caller builds it
        finished; nothing is checked or defaulted, which is what makes
        an event cost one append.  :meth:`emit` is the checked keyword
        form of the same thing.
        """
        return self._rows.append

    def emit(self, kind: str, node: str, *, ts: Optional[float] = None,
             key: int = -1, iteration: int = -1, priority: int = 0,
             layer: int = -1, nbytes: int = 0, queue_s: float = 0.0,
             wire_s: float = 0.0, detail: str = "") -> None:
        """Record one event from keyword fields: the checked form of
        :meth:`sink`, which fills defaults, reads the clock when ``ts``
        is None and turns ``kind`` into its plain string."""
        if ts is None:
            if self._clock is None:
                raise ValueError("recorder has no clock; pass ts explicitly")
            ts = self._clock()
        # A miss is an unknown kind: EventKind() raises the ValueError.
        kind = _KIND_VALUE.get(kind) or EventKind(kind).value
        self._rows.append((float(ts), node, kind, key, iteration, priority,
                           layer, nbytes, queue_s, wire_s, detail))

    def __len__(self) -> int:
        return len(self._rows)

    def log(self) -> EventLog:
        """The events recorded so far, in emission order, as an
        :class:`EventLog` over a snapshot of the rows."""
        return EventLog(self.source, self._rows[:])

    def to_dicts(self) -> List[Dict[str, object]]:
        """The recorded events as schema dicts, in emission order."""
        return list(self.log())

    def counts_by_kind(self) -> Dict[str, int]:
        return dict(Counter(map(_read_kind, self._rows[:])))



def kinds_per_slice(records: Iterable[Dict[str, object]]) -> Dict[int, Set[str]]:
    """Map each slice key to the set of event kinds observed for it."""
    out: Dict[int, Set[str]] = {}
    for record in records:
        if record["kind"] in SLICE_KINDS and record["key"] >= 0:
            out.setdefault(int(record["key"]), set()).add(str(record["kind"]))
    return out


def normalize_timestamps(records: List[Dict[str, object]]
                         ) -> List[Dict[str, object]]:
    """Rebase a stream so its earliest event is at t=0 (live processes
    record raw CLOCK_MONOTONIC values; rebasing makes them plottable and
    comparable to a simulator timeline that starts at zero)."""
    if not records:
        return []
    t0 = min(float(r["ts"]) for r in records)
    out = []
    for r in records:
        r2 = dict(r)
        r2["ts"] = float(r["ts"]) - t0
        out.append(r2)
    return out
