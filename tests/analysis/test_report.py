"""Tests for the report generator.  The one seam stubbed is the ledger's
figure runner, so no figure runs."""

from __future__ import annotations

from collections import defaultdict

import pytest

import repro.analysis.claims as claims
from repro.analysis.claims import (BEGIN, CLAIMS, END, FIGURE_RUNS, generate_report,
                                   write_report)
from repro.analysis.series import FigureData, Series
from repro.cli import main


class _Flat(FigureData):
    """Every series is flat at 1, every note is 1."""

    def get(self, label):
        return Series(label, [1.0, 2.0], [1.0, 1.0])


@pytest.fixture
def ran(monkeypatch):
    """The (run id, scale) pairs the report asked the runner for."""
    calls = []

    def run_figure(run, scale, **grid):
        calls.append((run.id, scale))
        fig = _Flat(run.id, "t", "x", "y")
        fig.notes = defaultdict(lambda: 1.0)
        return fig

    monkeypatch.setattr(claims, "run_figure", run_figure)
    return calls


def test_generate_report_structure(ran):
    text = generate_report(quick=False)
    keys = [f"`{key}`" for key in CLAIMS]
    assert [text.index(key) for key in keys] == sorted(text.index(key) for key in keys)
    assert "Measured at the `full` scale" in text and "not run" not in text
    read = {run for claim in CLAIMS.values() for run in claim.runs}
    assert sorted(ran) == sorted((run, "full") for run in read)


def test_generate_report_quick_mode_smaller(ran):
    text = generate_report(quick=True)
    assert "--quick" in text
    assert sorted(ran) == sorted((run.id, "ci") for run in FIGURE_RUNS if run.ci is not None)
    assert text.count("| not run |") == sum(not claim.ci for claim in CLAIMS.values()) > 0


def test_progress_callback_invoked(ran):
    seen = []
    generate_report(quick=True, progress=seen.append)
    assert "fig7a (ci)" in seen


def test_main_writes_file(ran, tmp_path, capsys):
    out = tmp_path / "r.md"
    assert main(["report", "--quick", "--out", str(out)]) == 0
    assert "P3 reproduction report" in out.read_text()


def test_write_report_replaces_only_the_generated_block(tmp_path):
    doc = tmp_path / "EXPERIMENTS.md"
    doc.write_text(f"prose\n{BEGIN}\nold\n{END}\nmore prose\n")
    write_report(f"# title\n{BEGIN}\nnew\n{END}\n", str(doc))
    assert doc.read_text() == f"prose\n{BEGIN}\nnew\n{END}\nmore prose\n"
