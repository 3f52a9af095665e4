"""Exporters: one run, three comparable artifacts (repro.obs).

Whatever produced the records — :func:`repro.sim.simulate` or a live
:func:`repro.live.aio.run_live_aio` — the same three exporters apply:

* :func:`export_chrome_trace` — ``chrome://tracing`` / Perfetto JSON
  with compute/stall/network spans plus the shared
  :mod:`repro.obs.events` stream as instant events.
* :func:`export_metrics_summary` — a per-run JSON document carrying the
  metrics registry snapshot (p50/p95/p99 and counters) and event counts.
* :func:`ascii_timeline` — the NIC utilization timeline rendered with
  :func:`repro.analysis.ascii_plot.ascii_plot`, for terminals and CI
  logs.

Inputs are duck-typed plain data (iteration records, transmission
records, event dicts) so this module depends on nothing above it and
both substrates can feed it without adapters.
"""

from __future__ import annotations

import json
import zlib
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from .events import SLICE_KINDS, EventKind, EventLog, _record_of, _rows
from .registry import ObsSession

#: Version tag stamped into every exported artifact.
SCHEMA_VERSION = "repro.obs/v1"

#: Chrome-trace lane layout per process (pid): compute and stalls on
#: tid 0, NIC tx on tid 1, NIC rx on tid 2, obs instant events on tid 3.
TID_COMPUTE = 0
TID_TX = 1
TID_RX = 2
TID_EVENTS = 3

#: Trace events encoded and written per ``json.dumps`` call.
_EXPORT_BATCH = 4096

#: pid offset for server nodes so "worker0" and "server0" (distinct
#: processes in a live run) never collide in the trace viewer.
SERVER_PID_BASE = 1000


def node_pid(node: str) -> int:
    """Map a node name ("worker3", "server1", "agg0") to a trace pid
    that is the same in every process (``hash(str)`` is salted)."""
    for prefix, base in (("worker", 0), ("server", SERVER_PID_BASE)):
        if node.startswith(prefix) and node[len(prefix):].isdigit():
            return base + int(node[len(prefix):])
    return 2 * SERVER_PID_BASE + zlib.crc32(node.encode()) % SERVER_PID_BASE


def _complete(name: str, cat: str, start: float, end: float,
              pid: int, tid: int, args: Optional[dict] = None) -> dict:
    ev = {
        "name": name,
        "cat": cat,
        "ph": "X",
        "ts": start * 1e6,  # chrome traces are in microseconds
        "dur": max(0.0, (end - start) * 1e6),
        "pid": pid,
        "tid": tid,
    }
    if args:
        ev["args"] = args
    return ev


#: Each arg's "not known" value, in arg order: an instant event leaves
#: out an arg that holds it.  A slice's priority is always known (P3
#: gives layer 0's slices priority 0).
_UNKNOWN_ARGS = {"key": -1, "iteration": -1, "priority": 0, "layer": -1,
                 "nbytes": 0, "queue_s": 0.0, "wire_s": 0.0, "detail": ""}


def _instant(record: Dict[str, object]) -> dict:
    known = ("priority",) if record["kind"] in SLICE_KINDS else ()
    args = {k: record[k] for k, unknown in _UNKNOWN_ARGS.items()
            if k in known or record.get(k) != unknown}
    return {
        "name": str(record["kind"]),
        "cat": "obs",
        "ph": "i",
        "s": "t",
        "ts": float(record["ts"]) * 1e6,
        "pid": node_pid(str(record["node"])),
        "tid": TID_EVENTS,
        "args": args,
    }


def _chrome_events(iteration_records, transmissions, events
                   ) -> Iterator[dict]:
    for rec in iteration_records or ():
        pid = rec.worker
        yield _complete(f"forward[{rec.iteration}]", "compute",
                        rec.forward_start, rec.backward_start, pid,
                        TID_COMPUTE, {"iteration": rec.iteration})
        yield _complete(f"backward[{rec.iteration}]", "compute",
                        rec.backward_start, rec.backward_end, pid,
                        TID_COMPUTE, {"iteration": rec.iteration})
        if rec.end > rec.backward_end:
            yield _complete(f"stall[{rec.iteration}]", "stall",
                            rec.backward_end, rec.end, pid, TID_COMPUTE)
    tids = {"tx": TID_TX, "rx": TID_RX}
    for t in transmissions or ():
        yield _complete(f"{t.direction} {t.wire_bytes}B", "network",
                        t.start, t.end, t.machine, tids[t.direction],
                        {"bytes": t.wire_bytes})
    for record in events or ():
        yield _instant(record)


_NUMBER = (int, float)
#: ``json.dumps(_instant(record))`` is the head (filled with the name),
#: the ts, the middle (filled with the pid), the args and the tail.
_INSTANT_HEAD = '{"name": %s, "cat": "obs", "ph": "i", "s": "t", "ts": '
_INSTANT_MIDDLE = ', "pid": %d, "tid": ' + str(TID_EVENTS) + ', "args": {'
_INSTANT_TAIL = "}}"


def _encode_instants(events: Iterable[Dict[str, object]]) -> Iterator[str]:
    """Each record's instant event as JSON text, byte for byte
    ``json.dumps(_instant(record))``.

    Records are read as rows (:func:`repro.obs.events._rows`): an
    :class:`~repro.obs.events.EventLog`'s in place, a plain dict's read
    into its row.  A row whose fields hold exactly the schema's types
    and finite numbers is written straight into the ``_INSTANT_*``
    template; any other record is encoded by that spec expression
    itself, which also raises what it raises.  Text a run repeats is
    made once: the head and middle per (kind, node), and each float's
    ``repr``, which is most of a record's cost.
    """
    heads: Dict[tuple, tuple] = {}
    floats: Dict[float, str] = {}

    def number(x) -> str:
        if type(x) is float and x:  # (0.0 == -0.0: zeros are not kept)
            text = floats.get(x)
            if text is None:
                text = floats[x] = repr(x)
            return text
        return repr(x)

    for source, row, record in _rows(events):
        ts = None
        if row is not None:
            (ts, node, kind, key, iteration, priority, layer, nbytes,
             queue_s, wire_s, detail) = row
        # (A None ts stops the test before any stale field is read.)
        if (type(ts) in _NUMBER and type(queue_s) in _NUMBER
                and type(wire_s) in _NUMBER
                and type(node) is type(kind) is type(detail) is str
                and type(key) is type(iteration) is type(priority)
                is type(layer) is type(nbytes) is int):
            ts = float(ts) * 1e6
            # x - x is 0 for every finite number and NaN for inf and NaN,
            # which json writes as bare words.
            if ts - ts == 0 and queue_s - queue_s == 0 \
                    and wire_s - wire_s == 0:
                head = heads.get((kind, node))
                if head is None:
                    head = heads[kind, node] = (
                        _INSTANT_HEAD % _json_str(kind),
                        _INSTANT_MIDDLE % node_pid(node),
                        kind in SLICE_KINDS)
                # The args _UNKNOWN_ARGS does not leave out.
                args = []
                if key != -1:
                    args.append(f'"key": {key}')
                if iteration != -1:
                    args.append(f'"iteration": {iteration}')
                if priority or head[2]:
                    args.append(f'"priority": {priority}')
                if layer != -1:
                    args.append(f'"layer": {layer}')
                if nbytes:
                    args.append(f'"nbytes": {nbytes}')
                if queue_s:
                    args.append('"queue_s": ' + number(queue_s))
                if wire_s:
                    args.append('"wire_s": ' + number(wire_s))
                if detail:
                    args.append('"detail": ' + _json_str(detail))
                yield (head[0] + number(ts) + head[1] + ", ".join(args)
                       + _INSTANT_TAIL)
                continue
        yield json.dumps(_instant(_record_of(source, row, record)))


def build_chrome_events(
    iteration_records: Optional[Iterable] = None,
    transmissions: Optional[Iterable] = None,
    events: Optional[Iterable[Dict[str, object]]] = None,
) -> List[dict]:
    """Assemble Chrome-trace events from any mix of record streams.

    ``iteration_records`` need ``worker/iteration/forward_start/
    backward_start/backward_end/end`` attributes (the simulator's
    :class:`~repro.sim.trace.IterationRecord` schema), ``transmissions``
    need ``machine/direction/start/end/wire_bytes``, and ``events`` are
    shared-schema dicts (:mod:`repro.obs.events`).
    """
    return list(_chrome_events(iteration_records, transmissions, events))


def _trace_event_texts(iteration_records, transmissions, events
                       ) -> Iterator[str]:
    """The trace events of :func:`_chrome_events` as JSON text, a batch
    of comma-separated events at a time."""
    spans = _chrome_events(iteration_records, transmissions, None)
    while batch := list(islice(spans, _EXPORT_BATCH)):
        yield json.dumps(batch)[1:-1]  # less its [ ]
    instants = _encode_instants(events or ())
    while batch := list(islice(instants, _EXPORT_BATCH)):
        yield ", ".join(batch)


def export_chrome_trace(
    path: Union[str, Path],
    iteration_records: Optional[Iterable] = None,
    transmissions: Optional[Iterable] = None,
    events: Optional[Iterable[Dict[str, object]]] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> Path:
    """Write a unified Chrome-tracing JSON file; return its path.

    One pass, a batch of trace events at a time, so neither the event
    list nor the text is ever whole in memory; the bytes are those of
    ``json.dumps`` over the whole document.  Spans go through the C
    encoder a batch at a time (``json.dump`` to a file drives the
    pure-Python one); instants through :func:`_encode_instants`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    other = json.dumps(dict(metadata or {}, schema=SCHEMA_VERSION))
    with open(path, "w") as f:
        f.write('{"traceEvents": [')
        separator = ""
        for text in _trace_event_texts(iteration_records, transmissions,
                                       events):
            f.write(separator + text)
            separator = ", "
        f.write('], "displayTimeUnit": "ms", "otherData": %s}' % other)
    return path


def canonicalize_trace(doc: dict, precision: int = 3) -> dict:
    """Normalize a trace document for byte-stable comparison.

    Events are sorted by (ts, pid, tid, name) and timestamps/durations
    rounded to ``precision`` decimal microseconds, so a regenerated
    golden file differs only when the run's *behaviour* differs (see
    ``tests/obs/test_golden_trace.py``).
    """
    events = []
    for ev in doc.get("traceEvents", []):
        ev = dict(ev)
        ev["ts"] = round(float(ev["ts"]), precision)
        if "dur" in ev:
            ev["dur"] = round(float(ev["dur"]), precision)
        if "args" in ev:
            ev["args"] = {
                k: (round(v, 9) if isinstance(v, float) else v)
                for k, v in sorted(ev["args"].items())
            }
        events.append(ev)
    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"]))
    out = dict(doc)
    out["traceEvents"] = events
    return out


# ----------------------------------------------------------------------
# Metrics summary
# ----------------------------------------------------------------------
def session_from_events(events: Iterable[Dict[str, object]],
                        source: str = "live") -> ObsSession:
    """Fold a shared-schema event stream into a fresh :class:`ObsSession`.

    Live processes record only events (cheap and mergeable across
    process boundaries); the driver derives metrics from them afterwards
    using the SAME instrument names the simulator adapters populate, so
    a live :func:`metrics_summary` is field-for-field comparable with a
    simulated one.  An :class:`~repro.obs.events.EventLog` is read from
    its rows; a dict may leave out the fields after ``kind``, which then
    hold their "not known" values.
    """
    sess = ObsSession(source)
    reg = sess.registry
    rows = (events.rows if isinstance(events, EventLog)
            else map(_row_with_defaults, events))
    for (ts, node, kind, key, iteration, priority, layer, nbytes, queue_s,
         wire_s, detail) in rows:
        kind = str(kind)
        if kind == EventKind.SLICE_SENT:
            reg.histogram("net.queue_delay_s").observe(float(queue_s))
            reg.histogram("net.wire_s").observe(float(wire_s))
            reg.counter("net.slices_sent").inc()
            reg.counter("net.bytes_sent").inc(int(nbytes))
        elif kind == EventKind.SLICE_PREEMPTED:
            reg.counter("net.preemptions").inc()
        elif kind == EventKind.FORWARD_GATE_OPEN:
            reg.histogram("worker.gate_wait_s").observe(float(queue_s))
        elif kind == EventKind.SLICE_ENQUEUED:
            reg.counter("worker.slices_enqueued").inc()
        elif kind == EventKind.SLICE_APPLIED:
            reg.counter("server.updates_applied").inc()
        elif kind == EventKind.ROUND_APPLIED:
            reg.counter("server.rounds_applied").inc()
        sess.recorder.emit(
            EventKind(kind), node=str(node), ts=float(ts), key=int(key),
            iteration=int(iteration), priority=int(priority),
            layer=int(layer), nbytes=int(nbytes), queue_s=float(queue_s),
            wire_s=float(wire_s), detail=str(detail))
    return sess


def _row_with_defaults(record: Dict[str, object]) -> tuple:
    """A record's row, its missing args at their "not known" values."""
    return (record["ts"], record["node"], record["kind"],
            *(record.get(name, unknown)
              for name, unknown in _UNKNOWN_ARGS.items()))


def metrics_summary(session: ObsSession,
                    metadata: Optional[Dict[str, object]] = None) -> dict:
    """One JSON-ready document summarizing a run's metrics and events."""
    counts = session.recorder.counts_by_kind()
    return {
        "schema": SCHEMA_VERSION,
        "source": session.source,
        "metadata": dict(metadata or {}),
        "metrics": session.metrics(),
        "event_counts": {k: counts[k] for k in sorted(counts)},
        "n_events": len(session.recorder),
    }


def export_metrics_summary(session: ObsSession, path: Union[str, Path],
                           metadata: Optional[Dict[str, object]] = None
                           ) -> Path:
    """Write :func:`metrics_summary` as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(json.dumps(metrics_summary(session, metadata), indent=2,
                           sort_keys=True))
    return path


# ----------------------------------------------------------------------
# ASCII utilization timeline
# ----------------------------------------------------------------------
def ascii_timeline(trace, machines: Sequence[int], direction: str = "tx",
                   bin_s: float = 0.01, width: int = 72, height: int = 16,
                   title: str = "NIC utilization") -> str:
    """Render per-machine NIC usage over time as a terminal plot.

    ``trace`` is anything with the :class:`repro.sim.trace
    .UtilizationTrace` ``series()`` API — which both simulated runs and
    live chunk timelines (via ``timeline_utilization``) provide.
    """
    # Imported lazily: repro.analysis pulls in the full driver stack
    # (including repro.live), which itself imports repro.obs.
    from ..analysis.ascii_plot import ascii_plot
    from ..analysis.series import FigureData

    fig = FigureData(figure_id="obs-timeline", title=title,
                     x_label="time (s)", y_label="Gbit/s")
    for machine in machines:
        times, gbps = trace.series(machine, direction, bin_s=bin_s)
        fig.add(f"m{machine} {direction}", times, gbps)
    return ascii_plot(fig, width=width, height=height)
