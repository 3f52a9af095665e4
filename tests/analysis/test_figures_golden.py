"""Every ``Sweep`` row at two axis values, byte for byte (``save_figure``
form: ids, titles, labels, x, y, notes) against a golden file generated
by :func:`build_documents` at the commit *before* the figures became
rows of one ``Sweep`` — it pins the arrangement, not just today's output.

Regenerate after an intentional change to a figure or the simulator,
and commit ``golden/figures.json`` with it::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/analysis/test_figures_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import analysis
from repro.analysis.storage import save_figure

GOLDEN = Path(__file__).parent / "golden" / "figures.json"

#: figure -> (model, two axis values).  The paper figures run a paper
#: model so their per-model panel ids, grids and bandwidths are on the
#: path; the ablations run the toy model, which takes milliseconds.
CASES = {
    "fig7_bandwidth_sweep": ("resnet50", (2.0, 8.0)),
    "fig10_scalability": ("resnet50", (2, 4)),
    "fig12_slice_size_sweep": ("vgg19", (50_000, 1_000_000)),
    "latency_sensitivity": ("toy3", (50, 1000)),
    "shared_cluster_sweep": ("toy3", (0.0, 0.4)),
    "server_count_sweep": ("toy3", (1, 4)),
    "oversubscription_sweep": ("toy3", (1.0, 4.0)),
    "straggler_sensitivity": ("toy3", (1.0, 2.0)),
}


def figure_document(name: str, tmp_path: Path) -> str:
    model, values = CASES[name]
    fig = getattr(analysis, name)(model, values, iterations=2, warmup=1)
    return save_figure(fig, tmp_path / f"{name}.json").read_text()


def build_documents(tmp_path: Path) -> dict:
    return {name: json.loads(figure_document(name, tmp_path))
            for name in sorted(CASES)}


def test_every_sweep_row_has_a_case():
    assert set(CASES) == {name for name in analysis.__all__ if isinstance(
        getattr(analysis, name), analysis.Sweep)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_figure_matches_golden(name, tmp_path):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.write_text(json.dumps(build_documents(tmp_path), indent=1)
                          + "\n")
        pytest.skip(f"regenerated {GOLDEN}")
    golden = json.loads(GOLDEN.read_text())[name]
    assert figure_document(name, tmp_path) == json.dumps(golden, indent=1)
