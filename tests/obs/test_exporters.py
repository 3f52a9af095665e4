"""Unit tests for the repro.obs exporters (trace, metrics, ASCII)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.models import toy_model
from repro.obs import (
    EventKind,
    EventRecorder,
    SCHEMA_VERSION,
    ascii_timeline,
    build_chrome_events,
    canonicalize_trace,
    export_chrome_trace,
    export_metrics_summary,
    metrics_summary,
    node_pid,
    session_from_events,
    sim_session,
)
from repro.sim import ClusterConfig, simulate
from repro.strategies import p3


def _observed_run():
    sess = sim_session()
    result = simulate(toy_model(), p3(),
                      ClusterConfig(n_workers=2, bandwidth_gbps=1.0, seed=0),
                      iterations=3, warmup=1, trace_utilization=True,
                      obs=sess)
    return result, sess


def test_node_pid_separates_workers_and_servers():
    assert node_pid("worker0") == 0
    assert node_pid("worker3") == 3
    assert node_pid("server0") == 1000
    assert node_pid("server1") == 1001
    assert node_pid("mystery") >= 2000  # unknown nodes never collide


def test_node_pid_is_the_same_in_every_process():
    """``hash(str)`` is salted per process; an aggregator's or a fault
    event's pid must not be."""
    code = ("from repro.obs import node_pid; "
            "print(node_pid('agg0'), node_pid('machine3'), node_pid('all'))")
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code], check=True, text=True,
            capture_output=True, timeout=60,
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": os.pathsep.join(sys.path)}).stdout
        for seed in ("1", "2")}
    assert outputs == {"%d %d %d\n" % (node_pid("agg0"),
                                       node_pid("machine3"),
                                       node_pid("all"))}


def test_build_chrome_events_covers_all_streams():
    result, sess = _observed_run()
    events = build_chrome_events(result.iterations.records,
                                 result.utilization.records,
                                 sess.events())
    phases = {e["ph"] for e in events}
    assert phases == {"X", "i"}
    cats = {e["cat"] for e in events}
    assert {"compute", "network", "obs"} <= cats
    names = {e["name"] for e in events}
    assert any(n.startswith("forward[") for n in names)
    assert any(n.startswith("backward[") for n in names)
    assert EventKind.SLICE_SENT.value in names
    # lane layout: pid = machine; tid 0 compute/stall, 1 NIC tx, 2 NIC rx
    for e in events:
        assert e["ts"] >= 0
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        if e["ph"] == "X":
            assert e["dur"] >= 0
            assert e["tid"] == 0 if e["cat"] in ("compute", "stall") \
                else e["tid"] in (1, 2)
    # a run without channel tracing exports its compute lanes alone
    bare = build_chrome_events(result.iterations.records)
    assert bare and all(e["cat"] in ("compute", "stall") for e in bare)


def test_instant_args_drop_only_unknown_values():
    """Key 0, layer 0 and iteration 0 are real; an arg is left out only
    at its "not known" value, and a slice's priority is always kept."""
    rec = EventRecorder("sim")
    rec.emit(EventKind.SLICE_SENT, node="worker0", ts=1.0, key=0,
             iteration=0, priority=0, layer=0)
    rec.emit(EventKind.FORWARD_GATE_OPEN, node="worker0", ts=2.0,
             iteration=0, layer=0)
    rec.emit(EventKind.SLICE_ENQUEUED, node="worker1", ts=3.0, key=5,
             priority=2, nbytes=8, queue_s=0.5, wire_s=0.25, detail="d")
    sent, gate, enqueued = (e["args"] for e in
                            build_chrome_events(events=rec.to_dicts()))
    assert sent == {"key": 0, "iteration": 0, "priority": 0, "layer": 0}
    assert gate == {"iteration": 0, "layer": 0}
    assert enqueued == {"key": 5, "priority": 2, "nbytes": 8,
                        "queue_s": 0.5, "wire_s": 0.25, "detail": "d"}


def test_export_chrome_trace_writes_valid_json(tmp_path):
    result, sess = _observed_run()
    path = export_chrome_trace(tmp_path / "sub" / "trace.json",
                               result.iterations.records,
                               result.utilization.records,
                               sess.events(),
                               metadata={"model": "toy3"})
    doc = json.loads(path.read_text())
    assert doc["otherData"] == {"model": "toy3", "schema": SCHEMA_VERSION}
    assert doc["traceEvents"]


@pytest.mark.parametrize("n_events", [0, 3, 4096, 9000])
def test_export_chrome_trace_bytes_are_json_dumps_of_the_document(
        tmp_path, n_events):
    """The exporter writes batch by batch; the file is still, byte for
    byte, ``json.dumps`` of the whole document (what it wrote before)."""
    rec = EventRecorder("sim")
    for i in range(n_events):
        rec.emit(EventKind.SLICE_SENT, node=f"worker{i % 4}", ts=i * 1e-3,
                 key=i, nbytes=100 + i, wire_s=1e-4, detail="push")
    events = rec.to_dicts()
    for metadata in (None, {"model": "toy3", "workers": 4}):
        path = export_chrome_trace(tmp_path / "trace.json", events=events,
                                   metadata=metadata)
        assert path.read_text() == json.dumps({
            "traceEvents": build_chrome_events(events=events),
            "displayTimeUnit": "ms",
            "otherData": dict(metadata or {}, schema=SCHEMA_VERSION),
        })


def test_canonicalize_sorts_and_rounds():
    doc = {"traceEvents": [
        {"name": "b", "ts": 2.00049, "dur": 1.0004, "pid": 0, "tid": 0,
         "args": {"z": 1, "a": 0.123456789012}},
        {"name": "a", "ts": 1.0, "pid": 0, "tid": 0},
    ]}
    out = canonicalize_trace(doc, precision=3)
    assert [e["name"] for e in out["traceEvents"]] == ["a", "b"]
    assert out["traceEvents"][1]["ts"] == 2.0
    assert out["traceEvents"][1]["dur"] == 1.0
    assert list(out["traceEvents"][1]["args"]) == ["a", "z"]
    assert doc["traceEvents"][0]["name"] == "b"  # input left untouched


def test_metrics_summary_and_export(tmp_path):
    _, sess = _observed_run()
    doc = metrics_summary(sess, metadata={"model": "toy3"})
    assert doc["schema"] == SCHEMA_VERSION
    assert doc["source"] == "sim"
    assert doc["n_events"] == sum(doc["event_counts"].values()) > 0
    assert doc["metrics"]["net.slices_sent"]["value"] == \
        doc["event_counts"]["slice_sent"]
    path = export_metrics_summary(sess, tmp_path / "m.json",
                                  metadata={"model": "toy3"})
    assert json.loads(path.read_text()) == doc


def test_session_from_events_round_trips_instruments():
    _, sess = _observed_run()
    rebuilt = session_from_events(sess.events(), source="sim")
    orig = sess.metrics()
    derived = rebuilt.metrics()
    # Event-derivable instruments agree exactly with the originals.
    # (net.preemptions only exists when a run actually preempts.)
    for name in ("net.slices_sent", "net.bytes_sent",
                 "worker.slices_enqueued", "server.updates_applied",
                 "server.rounds_applied"):
        assert derived[name]["value"] == orig[name]["value"], name
    assert derived["net.wire_s"]["count"] == orig["net.wire_s"]["count"]
    assert len(rebuilt.events()) == len(sess.events())


def test_ascii_timeline_renders(tmp_path):
    result, _ = _observed_run()
    art = ascii_timeline(result.utilization, machines=[0, 1],
                         title="toy3 NIC")
    assert "toy3 NIC" in art
    assert "time (s)" in art
    assert "m0 tx" in art and "m1 tx" in art
    assert len(art.splitlines()) > 5
