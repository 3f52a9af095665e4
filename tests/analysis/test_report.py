"""Tests for the report generator (drivers stubbed for speed)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.analysis.report as report_mod
from repro.analysis.report import generate_report
from repro.cli import main
from repro.analysis.schedules import ScheduleOutcome
from repro.analysis.series import FigureData


def _fake_schedule(strats):
    return {name: ScheduleOutcome(name, 10.0, 6.0, 4.0 - i)
            for i, name in enumerate(strats)}


def _fig(figure_id, notes):
    fig = FigureData(figure_id, "t", "x", "y")
    fig.add("s", [1.0], [1.0])
    fig.notes.update(notes)
    return fig


@pytest.fixture
def stubbed(monkeypatch):
    monkeypatch.setattr(report_mod, "fig4_schedule_comparison",
                        lambda: _fake_schedule(["baseline", "p3"]))
    monkeypatch.setattr(report_mod, "fig6_granularity_comparison",
                        lambda: _fake_schedule(["layer_granularity", "sliced"]))
    monkeypatch.setattr(report_mod, "fig5_param_distribution",
                        lambda: _fig("fig5", {}))
    monkeypatch.setattr(report_mod, "skew_statistics",
                        lambda name: {"n_layers": 10, "total_mparams": 1.0,
                                      "max_share": 0.5, "top_decile_share": 0.6})
    monkeypatch.setattr(report_mod, "fig7_bandwidth_sweep",
                        lambda name, iterations, jobs=1, cache=None: _fig(
                            "fig7", {"max_p3_speedup": 1.3,
                                     "max_p3_speedup_at_gbps": 4.0}))
    monkeypatch.setattr(report_mod, "burstiness_comparison",
                        lambda name: {"baseline": {"idle_frac": 0.4,
                                                   "iteration_time_s": 0.5},
                                      "p3": {"idle_frac": 0.1,
                                             "iteration_time_s": 0.4}})
    monkeypatch.setattr(report_mod, "fig10_scalability",
                        lambda name, values, iterations, jobs=1,
                        cache=None: _fig("fig10", {
                            "max_p3_speedup": 1.4, "max_p3_speedup_at_size": 8,
                            "scaling_efficiency_p3": 0.95}))
    monkeypatch.setattr(report_mod, "fig11_p3_vs_dgc",
                        lambda settings, epochs: _fig("fig11", {
                            "p3_final_mean": 0.93, "dgc_final_mean": 0.91,
                            "mean_accuracy_drop": 0.02}))
    monkeypatch.setattr(report_mod, "fig12_slice_size_sweep",
                        lambda name, values, iterations, jobs=1,
                        cache=None: _fig("fig12", {
                            "best_slice_size": 50000}))
    monkeypatch.setattr(report_mod, "fig13_tensorflow_utilization",
                        lambda: _fig("fig13", {"outbound_peak_gbps": 4.0,
                                               "inbound_idle_frac": 0.3}))
    monkeypatch.setattr(report_mod, "fig14_poseidon_utilization",
                        lambda: _fig("fig14", {"outbound_peak_gbps": 1.0,
                                               "outbound_idle_frac": 0.2}))
    monkeypatch.setattr(report_mod, "fig15_asgd_vs_p3",
                        lambda epochs: _fig("fig15", {
                            "p3_final": 0.94, "asgd_final": 0.80,
                            "asgd_to_p3_time_ratio": 4.0}))


def test_generate_report_structure(stubbed):
    text = generate_report(quick=False)
    for section in ("Figure 5", "Figure 7", "Figures 8 & 9", "Figure 10",
                    "Figure 11", "Figure 12", "Figures 13 & 14", "Figure 15"):
        assert section in text
    assert "paper: ~0.4%" in text or "paper: 1.25x" in text or "(paper:" in text


def test_generate_report_quick_mode_smaller(stubbed):
    full = generate_report(quick=False)
    quick = generate_report(quick=True)
    assert len(quick) < len(full)
    assert "quick" in quick


def test_progress_callback_invoked(stubbed):
    seen = []
    generate_report(quick=True, progress=seen.append)
    assert any("fig11" in s for s in seen)


def test_main_writes_file(stubbed, tmp_path, capsys):
    out = tmp_path / "r.md"
    assert main(["report", "--quick", "--out", str(out)]) == 0
    assert out.exists()
    assert "P3 reproduction report" in out.read_text()
