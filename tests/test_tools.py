"""Tests for repository tooling (docs generator, trace checker, pair judge)."""

from __future__ import annotations

import importlib.util
import json
import pathlib

from repro.models import toy_model
from repro.obs import export_chrome_trace, export_metrics_summary, sim_session
from repro.sim import ClusterConfig, simulate
from repro.strategies import p3

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _load_gen():
    return _load_tool("gen_api_reference")


def test_every_listed_module_documents():
    gen = _load_gen()
    for name in gen.MODULES:
        lines = gen.document_module(name)
        assert lines[0] == f"## `{name}`"


def test_module_list_covers_all_source_modules():
    """Every non-underscore module under src/repro must be listed (so
    the reference cannot silently rot)."""
    gen = _load_gen()
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    found = set()
    for path in src.rglob("*.py"):
        rel = path.relative_to(src.parent)
        if rel.name == "__init__.py":
            continue
        found.add(".".join(rel.with_suffix("").parts))
    missing = found - set(gen.MODULES)
    assert not missing, f"add to tools/gen_api_reference.py MODULES: {missing}"


def test_generate_produces_markdown(tmp_path):
    gen = _load_gen()
    text = gen.generate()
    assert text.startswith("# API reference")
    assert "## `repro.sim.cluster`" in text
    assert "ClusterConfig" in text


def test_committed_reference_is_fresh():
    """docs/api.md is what the generator produces from this source tree
    (regenerate with ``python tools/gen_api_reference.py``)."""
    assert (TOOLS.parent / "docs" / "api.md").read_text() == _load_gen().generate()


def test_main_writes_file(tmp_path):
    gen = _load_gen()
    out = tmp_path / "api.md"
    assert gen.main(["--out", str(out)]) == 0
    assert out.exists()


def test_check_trace_accepts_a_run_and_refuses_bare_nan(tmp_path, capsys):
    check = _load_tool("check_trace")
    sess = sim_session()
    result = simulate(toy_model(), p3(), ClusterConfig(n_workers=2, seed=0),
                      iterations=2, warmup=0, obs=sess)
    trace, metrics = tmp_path / "trace.json", tmp_path / "metrics.json"
    events = sess.events()
    export_chrome_trace(trace, result.iterations.records, events=events)
    export_metrics_summary(sess, metrics)
    assert check.main([str(trace), str(metrics)]) == 0
    # One instant short of the summary's count.
    export_chrome_trace(trace, result.iterations.records, events=events[1:])
    assert check.main([str(trace), str(metrics)]) == 1
    # What the exporter writes for a NaN that skipped validation.
    events = list(events)
    events[0]["wire_s"] = float("nan")
    export_chrome_trace(trace, events=events)
    assert "NaN" in trace.read_text()
    assert check.main([str(trace), str(metrics)]) == 1
    assert "bare NaN" in capsys.readouterr().err
    json.loads(trace.read_text())  # what the default parser lets through


def test_bench_pairs_verdicts():
    """The four verdicts of the pair rule, for a lower- and a
    higher-is-better metric."""
    verdict = _load_tool("bench_pairs").verdict
    parent = [10.0, 10.2, 9.8, 10.1, 10.0, 9.9, 10.0, 10.1, 9.9, 10.0]
    faster = [9.0] * 9 + [10.5]  # wins 9 of 10, by more than the IQR
    assert verdict(parent, faster, 0.1, True) == (9, "claim met")
    assert verdict(parent, [10.3] * 10, 0.1, True) == (0, "within bound")
    assert verdict(parent, [12.0] * 10, 0.1, True) == (0, "over bound")
    assert verdict([10.0, 14.0, 7.0], [10.5, 11.0, 9.0], 0.1,
                   True) == (1, "unresolved")
    assert verdict([1.0, 1.0, 1.0], [0.5, 0.49, 0.51], 0.1,
                   False) == (0, "over bound")
    assert verdict([1.0, 1.0, 1.0], [1.5, 1.4, 1.6], 0.1,
                   False) == (3, "claim met")
