"""CLI smoke tests (run in-process via main())."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


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
    """Full live run via the CLI: forks processes, so marked slow."""
    assert main(["live", "--iterations", "3", "--warmup", "1"]) == 0
    out = capsys.readouterr().out
    assert "bit-identical" in out
    assert "speedup" in out


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
    assert main(["allreduce", "--model", "resnet50", "--iterations", "3"]) == 0
    out = capsys.readouterr().out
    assert "allreduce_fifo" in out and "allreduce_p3" in out


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
