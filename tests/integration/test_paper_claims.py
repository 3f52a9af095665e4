"""The claims ledger (:mod:`repro.analysis.claims`) in tier-1: it is well
formed, every row whose runs all have ``ci`` settings holds at that
scale, and EXPERIMENTS.md's generated block, its only table, lists the
ledger's rows as they stand."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.claims import _OPS, BEGIN, CLAIMS, END, FIGURE_RUNS, RUNS, measure, table

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def test_every_run_is_read_by_a_row():
    read = {run for claim in CLAIMS.values() for run in claim.runs}
    assert read <= set(RUNS)
    assert [run.id for run in FIGURE_RUNS if run.id not in read] == []


@pytest.mark.parametrize("claim", CLAIMS.values(), ids=lambda claim: claim.key)
def test_row_is_well_formed(claim):
    """Its check is ``<op> <number>`` terms, so a typo fails here and not
    minutes into the benchmark; an extension's row has no paper value."""
    for term in claim.check.split(","):
        op, number = term.split()
        assert op in _OPS, claim.check
        float(number)
    assert claim.where.startswith("extension") == claim.key.startswith("ext_")
    assert claim.paper is None or not claim.key.startswith("ext_")


@pytest.fixture(scope="module")
def figures():
    """Run id -> figure, shared by the rows that read the same run."""
    return {}


@pytest.mark.parametrize("claim", [claim for claim in CLAIMS.values() if claim.ci],
                         ids=lambda claim: claim.key)
def test_claim(claim, figures):
    value = measure(claim, "ci", figures)
    assert claim.holds(value), f"{claim.key} = {value:.4g}, not {claim.check}"


def test_experiments_block_matches_the_ledger():
    """Every cell of the block's table that comes from the ledger — all
    but the measured value and its verdict — as the ledger renders it."""
    text = EXPERIMENTS.read_text()
    block = text[text.index(BEGIN):text.index(END)].splitlines()
    expected = table([(claim, None) for claim in CLAIMS.values()])
    start = block.index(expected[0])
    committed = block[start:block.index("", start)]
    assert ([row.rsplit(" | ", 2)[0] for row in committed]
            == [row.rsplit(" | ", 2)[0] for row in expected])


def test_experiments_has_no_table_outside_the_block():
    """Every table in EXPERIMENTS.md is the report's: numbers typed by hand
    beside it would stop matching the code that made them."""
    text = EXPERIMENTS.read_text()
    outside = text[:text.index(BEGIN)] + text[text.index(END):]
    assert [line for line in outside.splitlines() if line.lstrip().startswith("|")] == []
