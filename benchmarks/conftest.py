"""Shared benchmark utilities.

Every figure benchmark regenerates one ledger run's data series, prints
them (visible with ``pytest benchmarks/ --benchmark-only -s`` or in the
captured output summary), and writes a CSV under ``results/`` so the
data survives the run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def report(results_dir):
    """Print a FigureData summary and persist it as CSV."""

    def _report(fig, filename: str | None = None) -> None:
        print()
        print(fig.summary())
        name = filename or f"{fig.figure_id}.csv"
        path = fig.to_csv(results_dir / name)
        print(f"[saved] {path}")

    return _report


def run_once(benchmark, fn):
    """Run an expensive figure regeneration exactly once under
    pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
