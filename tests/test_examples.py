"""Smoke tests for the example scripts (the fast ones run end to end;
the slow ones are checked for importability and a main())."""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


ALL_EXAMPLES = sorted(p.stem for p in EXAMPLES.glob("*.py"))


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_importable_with_main(name):
    mod = _load(name)
    assert callable(getattr(mod, "main", None)), f"{name} lacks a main()"


@pytest.mark.slow
def test_live_cluster_runs(capsys, monkeypatch):
    """Runs real worker/server nodes over localhost TCP on one event
    loop; excluded from make test-fast."""
    import dataclasses

    mod = _load("live_cluster")
    small = dataclasses.replace(mod.demo_config(),
                                iterations=3, hidden=16, depth=1)
    monkeypatch.setattr(mod, "demo_config", lambda: small)
    mod.main()
    out = capsys.readouterr().out
    assert "bit-identical" in out
    assert "speedup" in out


def test_functional_equivalence_runs(capsys):
    """The example asserts the two stores' models are bit-identical."""
    _load("functional_equivalence").main()
    out = capsys.readouterr().out
    assert "max |param difference| after training: 0.00e+00" in out


def test_quickstart_runs(capsys):
    _load("quickstart").main()
    out = capsys.readouterr().out
    assert "P3 speedup" in out


def test_schedule_visualization_runs(capsys):
    _load("schedule_visualization").main()
    out = capsys.readouterr().out
    assert "baseline" in out and "p3" in out
    assert "F" in out and "#" in out  # gantt rows rendered
