"""The paper's claims in tier-1: every row of the ledger
(:mod:`repro.analysis.claims`) whose runs all have ``ci`` settings holds
at that scale, and EXPERIMENTS.md's generated block lists the ledger's
rows as they stand."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.claims import BEGIN, CLAIMS, END, measure, table

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
    text = (Path(__file__).resolve().parents[2] / "EXPERIMENTS.md").read_text()
    block = text[text.index(BEGIN):text.index(END)].splitlines()
    expected = table([(claim, None) for claim in CLAIMS.values()])
    start = block.index(expected[0])
    committed = block[start:block.index("", start)]
    assert ([row.rsplit(" | ", 2)[0] for row in committed]
            == [row.rsplit(" | ", 2)[0] for row in expected])
