"""Tests of the benchmark itself (``pytest bench/ -q``; not tier-1).

Every workload runs at ``--scale tiny`` — same code paths, inputs a
hundredth the size — so the whole file takes well under a minute.
"""

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import BENCH_DIR, ROOT, harness
from bench.compare import summarize, verdict
from bench.metrics import (END_TO_END, EXACT_LAYERS, EXTRA_END_TO_END,
                           LAYER_NAMES, LAYERS, WORKLOAD_NAMES, WORKLOADS,
                           EndToEnd, benchmark_doc)
from bench.workloads import WORKLOADS as IMPLS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def expected():
    return harness.load_expected()


@pytest.fixture(scope="module")
def traced(expected):
    return {name: harness.run_traced(IMPLS[name], 0, "tiny", expected)
            for name in WORKLOAD_NAMES}


@pytest.fixture(scope="module")
def untraced(expected):
    return {name: harness.run_untraced(IMPLS[name], 0, 0.0, "tiny", expected)
            for name in WORKLOAD_NAMES}


# ----------------------------------------------------------------------
# The declared vocabulary
# ----------------------------------------------------------------------
def test_names_units_and_counts_fit_the_format():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(LAYERS) <= 128
    names = ([n for n, _ in WORKLOADS] + [m.name for m in END_TO_END]
             + [m.name for m in EXTRA_END_TO_END] + list(LAYER_NAMES))
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    for m in (*END_TO_END, *EXTRA_END_TO_END, *LAYERS):
        assert UNIT.match(m.unit), (m.name, m.unit)
        assert m.better in ("lower", "higher")
    for _, why in WORKLOADS:
        assert len(why) <= 200 and "\n" not in why
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in END_TO_END)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert set(IMPLS) == set(WORKLOAD_NAMES)


def test_benchmark_json_is_the_declared_vocabulary():
    with open(ROOT / "BENCHMARK.json") as f:
        doc = json.load(f)
    assert doc == benchmark_doc()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


# ----------------------------------------------------------------------
# What the harness emits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(untraced, name):
    doc = untraced[name]
    assert set(doc["metrics"]) == {m.name for m in END_TO_END}
    assert all(v > 0 for v in doc["metrics"].values()), doc["metrics"]
    assert doc["failed"] == 0 and doc["attempted"] >= 1, doc["failed_ops"]
    wanted = {m.name for m in EXTRA_END_TO_END if name in m.workloads}
    assert set(doc["extra"]) == wanted
    line = json.loads(harness.result_line(doc))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == set(doc["metrics"])
    assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_emits_every_layer_metric(traced, name):
    doc = traced[name]
    assert set(doc["metrics"]) == set(LAYER_NAMES)
    assert doc["failed"] == 0, doc["failed_ops"]
    assert all(isinstance(v, float) and v == v for v in
               doc["metrics"].values())


def test_every_layer_metric_has_an_owner(traced):
    owned = {"trace.spans", "trace.wall_s"}
    for doc in traced.values():
        owned.update(doc["owned"])
    assert owned == set(LAYER_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_span_tree_is_well_formed(traced, name):
    with open(traced[name]["trace_file"]) as f:
        spans = json.load(f)["spans"]
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans)
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == [name]
    for s in spans:
        assert s["workload"] == name
        assert s["end_s"] >= s["start_s"]
        assert s["self_s"] >= -1e-9
        assert s["self_s"] <= s["end_s"] - s["start_s"] + 1e-9
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start_s"] - 1e-9 <= s["start_s"]
            assert s["end_s"] <= parent["end_s"] + 1e-9


def test_self_percentages_cover_the_profiled_interval(traced):
    for name, doc in traced.items():
        shares = [v for k, v in doc["metrics"].items()
                  if k.endswith(".self_pct")]
        assert sum(shares) == pytest.approx(100.0, abs=1.0), name


def test_exact_counts_and_digests_repeat(traced, expected):
    again = {name: harness.run_traced(IMPLS[name], 0, "tiny", expected)
             for name in ("fig7_sweep", "scale_ladder", "tenants8",
                          "obs_traced_sim", "warm_cached_sweep")}
    for name, doc in again.items():
        for metric in EXACT_LAYERS:
            assert doc["metrics"][metric] == traced[name]["metrics"][metric], \
                (name, metric)
    for name, impl in IMPLS.items():
        assert impl.reference(0, "tiny") == expected["tiny"][name]


def test_corrupted_expected_value_fails_an_op(expected):
    bad = copy.deepcopy(expected)
    entry = bad["tiny"]["fig7_sweep"]
    first = sorted(k for k in entry if k != "figure_sha256")[0]
    entry[first] = [entry[first][0], entry[first][1] + 1]
    doc = harness.run_untraced(IMPLS["fig7_sweep"], 0, 0.0, "tiny", bad)
    assert doc["failed"] == 1 and doc["failed_ops"] == [first]
    assert doc["extra"]["failed_share"] > 0
    assert json.loads(harness.result_line(doc))["correct"] is False
    # ...and an expected op the run no longer produces counts as failed.
    bad["tiny"]["scale_ladder"]["workers9999"] = ["1.0", 1]
    doc = harness.run_untraced(IMPLS["scale_ladder"], 0, 0.0, "tiny", bad)
    assert doc["failed_ops"] == ["workers9999"]


def test_a_timed_run_repeats_at_least_twice(expected):
    doc = harness.run_untraced(IMPLS["tenants8"], 0, 1e-3, "tiny", expected)
    assert doc["repetitions"] == 2
    assert doc["metrics"]["wall_s"] == min(doc["samples"]["wall_s"])


def test_other_seeds_skip_the_committed_values(expected):
    doc = harness.run_untraced(IMPLS["tenants8"], 5, 0.0, "tiny", expected)
    assert doc["failed"] == 0 and doc["attempted"] >= 1


# ----------------------------------------------------------------------
# Agreement tooling
# ----------------------------------------------------------------------
def test_verdicts():
    wall = EndToEnd("wall_s", "s", "lower", 0.10)
    a = summarize([10.0, 10.2, 10.1])
    assert verdict(wall, a, summarize([10.5, 10.6, 10.4])) == "same"
    assert verdict(wall, a, summarize([12.0, 12.1, 12.2])) == "worse"
    assert verdict(wall, a, summarize([8.0, 8.1, 8.2])) == "better"
    noisy = summarize([10.0, 12.0, 11.0])
    assert verdict(wall, noisy, summarize([14.0, 14.0, 14.0])) == "unresolved"
    goodput = EndToEnd("goodput_mb_per_s", "MB/s", "higher", 0.10)
    assert verdict(goodput, summarize([100.0]), summarize([80.0])) == "worse"
    exact = EndToEnd("sim_p3_speedup_x", "x", "higher", 0.0)
    assert verdict(exact, summarize([1.85]), summarize([1.85])) == "same"
    assert verdict(exact, summarize([1.85]), summarize([1.8501])) == "better"
    setup = EndToEnd("setup_s", "s", "lower", 0.25)
    assert verdict(setup, summarize([0.10]), summarize([0.14])) == "same"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "fig7_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
