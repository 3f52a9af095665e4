#!/usr/bin/env python3
"""Judge a change against its parent by alternating pairs of benchmark runs.

Usage::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N

Each pair runs ``python3 -m bench --workload W --seed 0 --seconds 12
--trace 0`` (``--seed S`` picks another seed, for the held-out check)
once from each checkout, in a fresh interpreter with that
checkout as the working directory; pair ``i`` runs the parent first when
``i`` is even and the change first when it is odd.  The last stdout line
of a run is the benchmark's JSON object; a run that is not ``"correct"``
or has failed operations stops the script.

For every end-to-end metric in ``BENCHMARK.json`` (read from
CHANGE_DIR) it prints each side's median and quartiles, the ratio of the
medians, how many pairs the change won (ties count for neither side) and
a verdict, by the rules in docs/performance.md (*Measuring*):

* ``claim met``: the change won at least nine tenths of the pairs and
  the medians differ, in the better direction, by more than the
  parent's interquartile distance;
* ``within bound``: the change's median is worse than the parent's by
  no more than the metric's bound;
* ``unresolved``: either side's interquartile distance is wider than the
  bound, so the runs cannot tell, unless every run of the change reads
  better than every run of the parent;
* ``over bound``: the median is worse by more than the bound and the
  runs are steady enough to say so.

It imports nothing from ``bench/``: it only runs it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles
from typing import Dict, List, Sequence, Tuple


def run_bench(checkout: str, workload: str, seed: int) -> Dict[str, float]:
    """One benchmark run from ``checkout``; returns metric -> value."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-m", "bench", "--workload", workload,
           "--seed", str(seed), "--seconds", "12", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    doc = json.loads(lines[-1])
    if not doc.get("correct") or doc.get("failed"):
        raise SystemExit(f"{checkout}: {workload} reported correct="
                         f"{doc.get('correct')} failed={doc.get('failed')}"
                         f"/{doc.get('attempted')}")
    return {name: m["value"] for name, m in doc["metrics"].items()}


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            lower_is_better: bool) -> Tuple[int, str]:
    """(pairs the change won, verdict) for one metric."""
    # Flip a higher-is-better metric, so that lower reads better below.
    sign = 1.0 if lower_is_better else -1.0
    parent = [sign * v for v in parent]
    change = [sign * v for v in change]
    wins = sum(1 for p, c in zip(parent, change) if c < p)
    p_med = median(parent)
    gain = p_med - median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    if wins >= 0.9 * len(parent) and gain > p_q3 - p_q1:
        return wins, "claim met"
    if max(change) < min(parent):
        return wins, "within bound"
    if max(p_q3 - p_q1, c_q3 - c_q1) > bound * abs(p_med):
        return wins, "unresolved"
    if -gain <= bound * abs(p_med):
        return wins, "within bound"
    return wins, "over bound"


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(sides[side], args.workload,
                                        args.seed))
        row = "  ".join(f"{m['name']} {runs['parent'][-1][m['name']]:.4g}"
                        f" -> {runs['change'][-1][m['name']]:.4g}"
                        for m in metrics)
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): {row}",
              file=sys.stderr, flush=True)

    print(f"`{args.workload}`, {args.pairs} alternating pairs, seed "
          f"{args.seed}:\n")
    print("| metric | parent median (q1–q3) | change median (q1–q3) "
          "| change / parent | change wins | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    for m in metrics:
        name = m["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins, word = verdict(parent, change, m["bound"],
                             m["better"] == "lower")
        p_q1, p_q3 = quartiles(parent)
        c_q1, c_q3 = quartiles(change)
        p_med, c_med = median(parent), median(change)
        ratio = c_med / p_med if p_med else float("nan")
        print(f"| `{name}` ({m['unit']}) "
              f"| {p_med:.4g} ({p_q1:.4g}–{p_q3:.4g}) "
              f"| {c_med:.4g} ({c_q1:.4g}–{c_q3:.4g}) | {ratio:.3f}× "
              f"| {wins}/{args.pairs} | {m['bound']:.0%} | {word} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
