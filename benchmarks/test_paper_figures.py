"""Every figure run of the claims ledger (:mod:`repro.analysis.claims`)
at the benchmark's scale, the paper's and the extensions': one case per
run regenerates the figure, writes ``results/<id>.csv`` and checks each
ledger row whose last run it is (``-s`` prints those rows)."""

from __future__ import annotations

import pytest

from repro.analysis.claims import CLAIMS, FIGURE_RUNS, measure, run_figure, table

from conftest import run_once

#: The training runs take minutes (Fig 11 ~2.5, Fig 15 ~0.5, the
#: co-simulation ~1 on two cores).
SLOW = {"fig11", "fig15", "ext_cosim"}
ORDER = [run.id for run in FIGURE_RUNS]


@pytest.fixture(scope="module")
def figures():
    """Run id -> figure, for the rows that read several runs."""
    return {}


@pytest.mark.parametrize("run", [
    pytest.param(run, id=run.id, marks=[pytest.mark.slow] * (run.id in SLOW))
    for run in FIGURE_RUNS])
def test_figure(benchmark, report, figures, run):
    figures[run.id] = run_once(benchmark, lambda: run_figure(run, "full"))
    report(figures[run.id], f"{run.id}.csv")
    outcomes = [(claim, measure(claim, "full", figures)) for claim in CLAIMS.values()
                if max(claim.runs, key=ORDER.index) == run.id]
    print("\n".join(table(outcomes)))
    failed = [f"{claim.key} = {value:.4g}, not {claim.check}"
              for claim, value in outcomes if not claim.holds(value)]
    assert not failed, failed
