"""CLI smoke tests (run in-process via main())."""

from __future__ import annotations

import dataclasses
import inspect
import json
import re

import pytest

from repro import analysis, cli
from repro.allreduce import (AllreduceConfig, framework_bucketing,
                             priority_allreduce, simulate_allreduce)
from repro.cli import build_parser, main
from repro.models import get_model


def test_parser_lists_all_figures():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                "fig11", "fig12", "fig13", "fig14", "fig15", "summary",
                "models", "live"):
        assert cmd in text


def test_live_parser_flags():
    parser = build_parser()
    args = parser.parse_args(["live", "--workers", "3", "--shards", "2",
                              "--iterations", "4", "--rate-mbps", "10"])
    assert args.workers == 3
    assert args.shards == 2
    assert args.iterations == 4
    assert args.rate_mbps == 10.0


@pytest.mark.slow
def test_live_command_runs(capsys):
    """Full live run via the CLI: baseline and p3 over a shaped link."""
    assert main(["live", "--iterations", "3", "--warmup", "1"]) == 0
    out = capsys.readouterr().out
    assert "bit-identical" in out
    assert "speedup" in out


class _StubRun:
    def goodput_bytes_per_s(self, worker):
        return 1e6


@pytest.mark.parametrize("identical", [True, False])
def test_live_command_exits_nonzero_when_the_run_diverges(monkeypatch,
                                                          capsys, identical):
    """A diverged live run fails the command; a sign disagreement alone
    stays a printed finding."""
    from repro.analysis import calibration
    from repro.live import aio

    def calibrate(cfg, live_results=None, observe=False):
        return calibration.CalibrationReport(
            live_baseline_s=1.0, live_p3_s=2.0, sim_baseline_s=2.0,
            sim_p3_s=1.0, bit_identical=identical,
            max_abs_diff=0.0 if identical else 3.5e-7)

    monkeypatch.setattr(aio, "run_live_aio", lambda cfg, strategy: _StubRun())
    monkeypatch.setattr(calibration, "calibrate", calibrate)
    argv = ["live", "--iterations", "3", "--warmup", "1"]
    if identical:
        assert main(argv) == 0
        assert "sign agreement (tolerance ±0.15): NO" in \
            capsys.readouterr().out
    else:
        with pytest.raises(SystemExit, match=r"max \|diff\| = 3\.50e-07"):
            main(argv)


@pytest.mark.parametrize("identical", [True, False])
def test_live_faults_command_exits_nonzero_when_recovery_diverges(
        monkeypatch, identical):
    from repro.analysis import calibration

    def calibrate_faults(cfg, plan, strategy):
        return calibration.FaultCalibrationReport(
            strategy=strategy, plan=plan, live_clean_s=1.0,
            live_faulty_s=1.5, sim_clean_s=1.0, sim_faulty_s=1.4,
            bit_identical_under_faults=identical,
            max_abs_diff=0.0 if identical else 1.25e-3,
            live_transport_stats={0: {"frames_retransmitted": 4}})

    monkeypatch.setattr(calibration, "calibrate_faults", calibrate_faults)
    argv = ["live", "--iterations", "3", "--warmup", "1",
            "--faults", "drop=0.05"]
    if identical:
        assert main(argv) == 0
    else:
        with pytest.raises(SystemExit, match=r"max \|diff\| = 1\.25e-03"):
            main(argv)


def test_models_command(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    assert "vgg19" in out and "sockeye" in out


def test_fig4_command(capsys):
    assert main(["fig4"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "p3" in out


def test_fig5_command_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "fig5.csv"
    assert main(["fig5", "--csv", str(csv_path)]) == 0
    assert csv_path.exists()
    assert "71.5%" in capsys.readouterr().out


def test_fig6_command(capsys):
    assert main(["fig6"]) == 0
    assert "slicing reduces" in capsys.readouterr().out


def test_bounds_command(capsys):
    assert main(["bounds", "--model", "resnet50"]) == 0
    out = capsys.readouterr().out
    assert "5.98 Gbps" in out and "3.99 Gbps" in out


def test_allreduce_command(capsys):
    """The figure row prints each launch discipline's per-worker
    throughput: one simulation per strategy, warmup 1."""
    assert main(["allreduce", "--model", "resnet50", "--iterations", "3"]) == 0
    out = capsys.readouterr().out
    assert "allreduce_fifo" in out and "allreduce_p3" in out
    for strategy in (framework_bucketing(), priority_allreduce()):
        result = simulate_allreduce(get_model("resnet50"), strategy,
                                    AllreduceConfig(n_workers=4),
                                    iterations=3, warmup=1)
        assert f"{result.throughput / 4:.3f}" in out


def test_trace_command(tmp_path, capsys):
    out_path = tmp_path / "t.json"
    assert main(["trace", "--model", "resnet50", "--iterations", "3",
                 "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["otherData"]["model"] == "resnet50"
    assert {e["cat"] for e in doc["traceEvents"]} >= {"compute", "network"}


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_model_rejected():
    with pytest.raises(SystemExit):
        main(["fig7", "--model", "lenet5"])


def _reads(fn, seen) -> set:
    """Every ``args.<dest>`` a handler reads, following the ``cli``
    helpers that take ``args``."""
    if fn in seen:
        return set()
    seen.add(fn)
    source = inspect.getsource(fn)
    dests = set(re.findall(r"\bargs\.(\w+)", source))
    for name in re.findall(r"\b(\w+)\(", source):
        helper = getattr(cli, name, None)
        if (inspect.isfunction(helper)
                and "args" in inspect.signature(helper).parameters):
            dests |= _reads(helper, seen)
    return dests


def test_no_subcommand_accepts_a_flag_its_handler_ignores():
    """83 (subcommand, flag) pairs were accepted and ignored before each
    subcommand declared its own flags."""
    subparsers, = [a.choices for a in build_parser()._actions if a.choices]
    for name, sub in subparsers.items():
        accepted = {a.dest for a in sub._actions if a.option_strings}
        assert accepted - {"help"} <= _reads(sub.get_default("fn"), set()), name


def test_ignored_flag_is_a_parse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["models", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_accepted_flag_changes_the_run(monkeypatch, capsys):
    """fig12 took ``--workers`` and ran four workers whatever it said."""
    monkeypatch.setattr(analysis, "fig12_slice_size_sweep", dataclasses.replace(
        analysis.fig12_slice_size_sweep, grid=(50_000, 1_000_000)))
    outs = []
    for workers in ("2", "4"):
        assert main(["fig12", "--iterations", "3", "--workers", workers]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] != outs[1]


def test_shared_runs_through_the_grid_and_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    argv = ["shared", "--model", "toy3", "--iterations", "3",
            "--jobs", "2", "--cache"]
    assert main(argv) == 0
    assert "cache: 0 hits, 8 misses" in capsys.readouterr().out
    assert main(argv) == 0
    assert "cache: 8 hits, 0 misses" in capsys.readouterr().out
